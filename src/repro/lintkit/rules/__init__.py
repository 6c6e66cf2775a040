"""Rule catalog. Importing this package registers every rule.

| id    | protects                                                        |
|-------|-----------------------------------------------------------------|
| RK001 | discrete monotone clocks (paper section 2: T is model time)     |
| RK002 | reproducible randomness in sketches/sampling/streams            |
| RK003 | the DecayingSum engine protocol (sections 3-5 guarantees),      |
|       | members inherited from bases in any project module              |
| RK004 | no silently-swallowed errors around certified bounds            |
| RK005 | no exact float comparison on time/age/weight quantities         |
| RK006 | complete annotations on the core/histograms public surface      |
| RK007 | pure conformance laws (deterministic fuzzing + trustworthy      |
|       | shrinking in repro.conformance)                                 |
| RK008 | the shard-parallelism boundary (concurrency imports only in     |
|       | repro.service; engines stay pure functions of the trace)        |
| RK010 | no indirect RNG/concurrency through exempt-scope helpers        |
|       | (whole-program, taint fixpoint with witness chains)             |
| RK011 | allocation-free loop bodies in `# lintkit: hot` kernels         |
| RK012 | checkpoint completeness: serialize/restore cover every          |
|       | persistent engine attribute and agree on snapshot keys          |

RK001, RK002, RK004-RK008 and RK011 are per-file rules; RK003, RK010 and
RK012 are whole-program rules built on :mod:`repro.lintkit.graph` and
:mod:`repro.lintkit.dataflow`.  Ids are never reused: the number
between RK008 and RK010 belongs to a retired rule and stays unassigned,
as RK000 is reserved for files that fail to parse.
"""

from repro.lintkit.rules import (  # noqa: F401  (registration side effects)
    rk001_wallclock,
    rk002_rng,
    rk003_protocol,
    rk004_excepts,
    rk005_floateq,
    rk006_annotations,
    rk007_pure_laws,
    rk008_parallelism,
    rk010_taint,
    rk011_hotpath,
    rk012_serialization,
)
