"""End-to-end and per-layer benchmark of metafold.

Run from the repository root (the program is imported from its `src/`):

    python3 -m perfbench --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (inputs.py; the reasons are in BENCHMARK.json): `sweep`
(`metafold run`), `remote` (local search with perturb and accept served by
`metafold serve`), `solve_tsp` and `solve_generic` (`metafold solve` on the
two routes of the white-box dispatcher). All inputs come from the seed.

`--trace 0` prints the end-to-end metrics. An operation is a trial in
`sweep`, an RPC in `remote` and a solve call in the solve workloads.

- evals_per_s, ops_per_s: objective evaluations and operations per second.
- op_ms_p50, op_ms_p90: operation latency; in `sweep` the `wall_ms` column
  of results.csv, in `remote` the time around each proxy call.
- setup_s: median of seven set-ups spread over the run (SETUP_REPEATS),
  each a fresh-interpreter import of metafold plus generating, parsing and
  validating the inputs (and, in `remote`, starting the server and fetching
  the descriptors).
- peak_rss_mb: peak resident memory of the program: the benchmark process,
  plus the `metafold serve` server in `remote`, plus the largest other
  child process the program starts (none today; bench._peak_rss_mb).
- In the solve workloads an operation's evaluations are the --budget it is
  given, since `metafold solve` prints no count.

Durations other than setup_s are scaled to a reference host speed
(hostspeed.py); the figures as measured are printed next to them, and so
are the workload's own names for the metrics (trials_per_s, rpc_ms_p99,
...) and failed_frac.

`--trace 1` prints the per-layer metrics (bench.py).

Every operation's output is reduced to a digest and compared with
golden.json, recorded from the seed commit; a mismatch fails the
operation. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

Tests: `PYTHONPATH=src python -m pytest -q perfbench`.
"""
