"""qcvv benchmark: runner, tracer, workloads and result comparison."""
