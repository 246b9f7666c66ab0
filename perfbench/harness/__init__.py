"""Building blocks of the PHAST benchmark (see ``perfbench/README.md``)."""
