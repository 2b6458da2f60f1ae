"""The CLI jobs each workload runs, in closed-loop cycle order.

Why these workloads:

* ``resample`` is the paper's uncertainty path: an Onegin-sized Cyrillic
  text (15 blocks) and an Italian companion under ``bootstrap``, ``acf``
  and two-source ``regress``. Model fits and block resampling do most of
  the work; parsing and probes do little.
* ``probe`` is the per-character, per-match text path: one long text
  (30 blocks) under ``encode`` and ``probe`` with annotation and name
  tables. No model is fitted, so a ``markov`` or ``resample`` change must
  show no change here.
* ``chapters`` runs ``profile --control-set none`` and ``simulate`` on
  chapter-sized texts of 5, 7, 8 and 9 blocks. Below 11 blocks Spearman
  tests take the exact permutation path, ``simulate`` generates rather
  than fits, and the fixed per-job costs weigh more on short inputs.

The ``ksym`` of a job is the thousands of symbols it analyses, fixed by its
inputs and arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from gen import WorkloadInputs

WORKLOADS = ("resample", "probe", "chapters")
REPLICATES = 1000
REGRESS_REPLICATES = 500
MAX_LAG = 10
ENSEMBLE = 200
SIM_LENGTH = 10_000
CLASSES = ("VVV", "CCC", "VVC", "CCV")
THRESHOLD = 0.05


@dataclass
class Job:
    """One CLI invocation and what its outputs must satisfy."""

    name: str
    kind: str
    argv: list[str]
    ksym: float
    texts: tuple[str, ...]
    params: dict = field(default_factory=dict)

    def command(self, out_dir: str) -> list[str]:
        return self.argv + ["--out", out_dir]


def _single(kind, label, inputs: WorkloadInputs, *extra) -> list[str]:
    text = inputs.texts[label]
    return [
        kind, "--input", f"inputs/{text.path}", "--layout", f"inputs/{inputs.layout}",
        "--scheme", text.scheme, "--block-len", str(text.block_len), *extra,
    ]


def _regress(inputs, labels, replicates, seed) -> list[str]:
    argv = ["regress"]
    for label in labels:
        text = inputs.texts[label]
        name = label.removeprefix("warm_")
        argv += [
            "--source", f"{name}=inputs/{text.path}",
            "--layout", f"{name}=inputs/{inputs.layout}",
            "--scheme-map", f"{name}={text.scheme}",
        ]
    return argv + [
        "--baseline", "ru", "--replicates", str(replicates), "--seed", str(seed),
        "--block-len", str(inputs.texts[labels[0]].block_len),
    ]


def cycle_jobs(workload: str, inputs: WorkloadInputs, seed: int) -> list[Job]:
    """The timed jobs of one closed-loop cycle."""
    sym = {label: t.symbols / 1000.0 for label, t in inputs.texts.items()}
    mbb = ["--replicates", str(REPLICATES), "--seed", str(seed)]
    if workload == "resample":
        return [
            Job("bootstrap", "bootstrap", _single("bootstrap", "ru", inputs, *mbb),
                sym["ru"] * (1 + REPLICATES), ("ru",), {"replicates": REPLICATES}),
            Job("acf", "acf", _single("acf", "ru", inputs, *mbb,
                                      "--max-lag", str(MAX_LAG)),
                sym["ru"] * (1 + REPLICATES), ("ru",), {"max_lag": MAX_LAG}),
            Job("regress", "regress",
                _regress(inputs, ("it", "ru"), REGRESS_REPLICATES, seed),
                (sym["ru"] + sym["it"]) * (1 + REGRESS_REPLICATES), ("it", "ru"),
                {"replicates": REGRESS_REPLICATES}),
        ]
    if workload == "probe":
        return [
            Job("encode", "encode", _single("encode", "long", inputs), sym["long"],
                ("long",)),
            Job("probe", "probe", _single(
                "probe", "long", inputs, "--classes", ",".join(CLASSES),
                "--threshold", str(THRESHOLD),
                "--annotations", f"inputs/{inputs.annotations}",
                "--names", f"inputs/{inputs.names}"),
                sym["long"], ("long",), {"threshold": THRESHOLD}),
        ]
    if workload == "chapters":
        jobs = []
        for label in sorted(inputs.texts):
            if label.startswith("warm_"):
                continue
            jobs.append(Job(f"profile-{label}", "profile", _single(
                "profile", label, inputs, "--control-set", "none"),
                sym[label], (label,)))
            jobs.append(Job(f"simulate-{label}", "simulate", _single(
                "simulate", label, inputs, "--ensemble", str(ENSEMBLE),
                "--sim-length", str(SIM_LENGTH), "--seed", str(seed)),
                sym[label] + ENSEMBLE * SIM_LENGTH / 1000.0, (label,),
                {"ensemble": ENSEMBLE}))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def warmup_jobs(workload: str, inputs: WorkloadInputs, seed: int) -> list[Job]:
    """One small untimed job per kind, on the short warm-up texts."""
    seed_args = ["--seed", str(seed)]
    few = ["--replicates", "20"] + seed_args
    if workload == "resample":
        argvs = [
            _single("bootstrap", "warm_ru", inputs, *few),
            _single("acf", "warm_ru", inputs, *few),
            _regress(inputs, ("warm_it", "warm_ru"), 20, seed),
        ]
    elif workload == "probe":
        argvs = [
            _single("encode", "warm_ru", inputs),
            _single("probe", "warm_ru", inputs, "--annotations",
                    f"inputs/{inputs.annotations}", "--names",
                    f"inputs/{inputs.names}"),
        ]
    elif workload == "chapters":
        argvs = [
            _single("profile", "warm_ru", inputs, "--control-set", "none"),
            _single("simulate", "warm_ru", inputs, "--ensemble", "10",
                    "--sim-length", "1000", *seed_args),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [Job(f"warm-{argv[0]}", argv[0], argv, 0.0, ()) for argv in argvs]
