"""Benchmark of the k3lattices library: four workloads, end-to-end and traced."""
