"""The simulator's benchmark: probe-normalized host time over four
workloads, model outputs, and a per-layer traced pass (see README.md)."""
