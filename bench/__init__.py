"""Layer-attributed end-to-end benchmark of the repro service stack.

``python3 bench/run.py --workload NAME --seed N`` starts the real service
(``ServiceServer`` + ``IngestDaemon`` + a keyed store) in its own process,
drives it over HTTP from a single-process generator, checks every served
answer against an in-process reference replay, and prints the metrics
named in ``BENCHMARK.json``.  See ``bench/README.md``.
"""
