"""Job lists of the four benchmark workloads.

A job is one call of the CLI entry point ``oneshot_qit.cli.run(argv)``.
``build(workload, seed, workdir)`` writes the state files a workload
needs into ``workdir`` and returns its jobs; the library sees only those
files and argument lists.

Inputs come from ``seed % VARIANTS``: the reference outputs in
``references.json`` are recorded for each of the ``VARIANTS`` input sets,
so every job of every seed can be checked.  The job count, the job
kinds and the argument shapes never depend on the seed; only the state
entries, the classical pairs and the Monte-Carlo seeds do.

Each pass runs the same list in the same order.  The lists are sized so
that one pass costs a few seconds at most and so that the 50th and 90th
percentile of job latency fall inside a group of jobs of similar cost,
not on the boundary between two groups.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

VARIANTS = 16
WORKLOADS = ("spectrum", "sandwich", "protocol-exact", "protocol-mc")


@dataclass(frozen=True)
class Job:
    """One CLI call.

    ``kind`` names the output schema and with it the tolerance used to
    compare the output against its reference.  ``oracle`` names an
    independent check run on top of the reference comparison, with its
    arguments in ``oracle_args``.
    """

    id: str
    kind: str
    argv: tuple[str, ...]
    oracle: str | None = None
    oracle_args: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------

def _rng(workload: str, variant: int, tag: str) -> np.random.Generator:
    salt = zlib.crc32(f"{workload}/{tag}".encode())
    return np.random.default_rng([salt, variant])


def _density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _simplex(rng: np.random.Generator, k: int, floor: float = 0.0) -> np.ndarray:
    v = rng.dirichlet(np.ones(k)) + floor
    return v / v.sum()


def _write_state(path: Path, p, rhos) -> str:
    """Write the JSON state-file format; returns the path as a string."""
    rhos = np.asarray(rhos, dtype=complex)
    rhos = (rhos + np.conj(np.swapaxes(rhos, -1, -2))) / 2
    doc = {
        "alphabet_size": len(p),
        "dim_b": rhos.shape[-1],
        "p": [float(x) for x in p],
        "rhos": np.stack([rhos.real, rhos.imag], axis=-1).tolist(),
    }
    path.write_text(json.dumps(doc))
    return str(path)


def _cq_state(rng, workdir: Path, name: str, alphabet: int, d: int) -> str:
    p = _simplex(rng, alphabet, floor=0.05)
    return _write_state(workdir / name, p, [_density(rng, d) for _ in range(alphabet)])


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _spectrum(variant: int, workdir: Path) -> list[Job]:
    """Single-letter operator pairs through ``divergence``: the D_s scan."""
    rng = _rng("spectrum", variant, "pairs")
    jobs = []
    for d in (4, 8, 16):
        a = _write_state(workdir / f"rho{d}.json", [1.0], [_density(rng, d)])
        b = _write_state(workdir / f"sigma{d}.json", [1.0], [_density(rng, d)])
        pair = ("--state-a", a, "--state-b", b)
        for eps in (0.05, 0.2, 0.5):
            jobs.append(Job(f"dh-d{d}-e{eps}", "divergence:dh",
                            ("divergence", "--kind", "dh", *pair, "--eps", str(eps))))
        for kind in ("d2", "kl", "var"):
            jobs.append(Job(f"{kind}-d{d}", f"divergence:{kind}",
                            ("divergence", "--kind", kind, *pair)))
        for eps in (0.1, 0.3):
            jobs.append(Job(f"ds-d{d}-e{eps}", "divergence:ds",
                            ("divergence", "--kind", "ds", *pair,
                             "--eps", str(eps), "--grid", "2048")))

    # a commuting pair: D_h has an exact greedy answer to check against
    d = 8
    u = _unitary(rng, d)
    r = _simplex(rng, d)
    s = _simplex(rng, d, floor=0.05)
    a = _write_state(workdir / "crho.json", [1.0], [u @ np.diag(r) @ u.conj().T])
    b = _write_state(workdir / "csigma.json", [1.0], [u @ np.diag(s) @ u.conj().T])
    pair = ("--state-a", a, "--state-b", b)
    for eps in (0.1, 0.3):
        jobs.append(Job(f"dh-commuting-e{eps}", "divergence:dh",
                        ("divergence", "--kind", "dh", *pair, "--eps", str(eps)),
                        oracle="greedy_dh",
                        oracle_args={"r": r.tolist(), "s": s.tolist(), "eps": eps}))
    jobs.append(Job("ds-commuting", "divergence:ds",
                    ("divergence", "--kind", "ds", *pair, "--eps", "0.2")))
    jobs.append(Job("kl-commuting", "divergence:kl",
                    ("divergence", "--kind", "kl", *pair)))
    return jobs


def _sandwich(variant: int, workdir: Path) -> list[Job]:
    """Size sandwiches and rates on dense |X|*d joint operators."""
    rng = _rng("sandwich", variant, "states")
    jobs = []
    for alphabet, d in ((4, 4), (4, 8), (8, 4), (8, 8)):
        path = _cq_state(rng, workdir, f"x{alphabet}d{d}.json", alphabet, d)
        tag = f"x{alphabet}-d{d}"
        for task in ("pa", "covering"):
            jobs.append(Job(f"bounds-{task}-{tag}", "bounds",
                            ("bounds", "--task", task, "--state", path,
                             "--eps", "0.3", "--delta", "0.09", "--c", "0.04")))
            jobs.append(Job(f"rates-{task}-{tag}", "rates",
                            ("rates", "--task", task, "--state", path,
                             "--eps", "0.2", "--n-list", "100,400,1600")))
    # two more 64-dimensional sandwiches, so that the slowest group of
    # jobs holds well over a tenth of each pass
    for task in ("pa", "covering"):
        jobs.append(Job(f"bounds-{task}-x8-d8-wide", "bounds",
                        ("bounds", "--task", task, "--state", path,
                         "--eps", "0.4", "--delta", "0.1", "--c", "0.05")))

    p, q = _simplex(rng, 3, 0.05), _simplex(rng, 3, 0.05)
    jobs.append(Job("sweep-second", "sweep",
                    ("sweep", "--regime", "second", "--p", _csv(p), "--q", _csv(q),
                     "--eps", "0.2", "--n-list", "25,100,200")))
    jobs.append(Job("sweep-moderate", "sweep",
                    ("sweep", "--regime", "moderate", "--p", _csv(p), "--q", _csv(q),
                     "--t", "0.333", "--n-list", "64,256")))
    # small blocklengths: the exact value is checked by brute force over 3^n strings
    p, q = _simplex(rng, 3, 0.05), _simplex(rng, 3, 0.05)
    jobs.append(Job("sweep-brute", "sweep",
                    ("sweep", "--regime", "second", "--p", _csv(p), "--q", _csv(q),
                     "--eps", "0.3", "--n-list", "1,2,3,4,5,6"),
                    oracle="brute_iid",
                    oracle_args={"p": _csv(p), "q": _csv(q), "eps": 0.3}))
    return jobs


def _protocol_exact(variant: int, workdir: Path) -> list[Job]:
    """Exact protocol simulation and certified searches: enumeration."""
    rng = _rng("protocol-exact", variant, "states")
    bit = _write_state(workdir / "bit.json", [0.5, 0.5], [[[1.0]], [[1.0]]])
    x4d1 = _cq_state(rng, workdir, "x4d1.json", 4, 1)
    x4d2 = _cq_state(rng, workdir, "x4d2.json", 4, 2)
    x4d4 = _cq_state(rng, workdir, "x4d4.json", 4, 4)
    x6d2 = _cq_state(rng, workdir, "x6d2.json", 6, 2)
    x6d2b = _cq_state(rng, workdir, "x6d2b.json", 6, 2)
    x3d2 = _cq_state(rng, workdir, "x3d2.json", 3, 2)
    x3d4 = _cq_state(rng, workdir, "x3d4.json", 3, 4)
    x2d4 = _cq_state(rng, workdir, "x2d4.json", 2, 4)

    def sim(task, path, size):
        return ("simulate", "--task", task, "--state", path,
                "--size", str(size), "--method", "exact")

    jobs = [
        Job("pa-bit-z2", "simulate", sim("pa", bit, 2),
            oracle="constant", oracle_args={"value": 0.25}),
        Job("pa-x4d1-z16", "simulate", sim("pa", x4d1, 16)),
        Job("pa-x4d2-z4", "simulate", sim("pa", x4d2, 4)),
        Job("pa-x4d2-z8", "simulate", sim("pa", x4d2, 8)),
        Job("pa-x4d2-z12", "simulate", sim("pa", x4d2, 12)),
        Job("pa-x4d4-z8", "simulate", sim("pa", x4d4, 8)),
        Job("pa-x4d4-z10", "simulate", sim("pa", x4d4, 10)),
        Job("pa-x6d2-z4", "simulate", sim("pa", x6d2, 4)),
        Job("pa-x6d2-z6", "simulate", sim("pa", x6d2, 6)),
        # with pa-x6d2-z4, the two cap-4 searches and the x4d2 covering
        # search: five jobs of about 20 ms that hold the median
        Job("pa-x6d2b-z4", "simulate", sim("pa", x6d2b, 4)),
        Job("cov-x4d2-m8", "simulate", sim("covering", x4d2, 8)),
        Job("cov-x3d4-m12", "simulate", sim("covering", x3d4, 12)),
        Job("cov-x2d4-m20", "simulate", sim("covering", x2d4, 20)),
    ]
    for task, path, tag, eps, cap in (("pa", x4d2, "x4d2", 0.3, 8),
                                      ("pa", x6d2, "x6d2", 0.3, 4),
                                      ("pa", x6d2b, "x6d2b", 0.3, 4),
                                      ("covering", x3d2, "x3d2", 0.25, 8),
                                      ("covering", x4d2, "x4d2", 0.25, 8)):
        jobs.append(Job(f"search-{task}-{tag}-cap{cap}", "search",
                        ("search", "--task", task, "--state", path,
                         "--eps", str(eps), "--cap", str(cap), "--quiet")))
    return jobs


def _protocol_mc(variant: int, workdir: Path, max_workers: int) -> list[Job]:
    """Monte-Carlo protocol simulation, each job at one and two workers."""
    rng = _rng("protocol-mc", variant, "states")
    path = _cq_state(rng, workdir, "x8d4.json", 8, 4)
    mc_seeds = rng.integers(0, 2**31, size=15)
    jobs = []

    def add(task, size, samples, k):
        for workers in (1, 2):
            jobs.append(Job(
                f"{task}-s{size}-n{samples}-k{k}-w{workers}", "simulate",
                ("simulate", "--task", task, "--state", path, "--size", str(size),
                 "--method", "mc", "--samples", str(samples),
                 "--seed", str(mc_seeds[k]), "--workers", str(min(workers, max_workers))),
                oracle="same_as" if workers == 2 else None,
                oracle_args={"partner": f"{task}-s{size}-n{samples}-k{k}-w1"},
            ))

    # 40 jobs: the m=16 jobs hold the median, and the four z=16 jobs
    # fill the 85th to 95th percentile, so that the 90th lies in their middle
    for k in range(15):
        add("covering", 16, 8192, k)
    for k in range(2):
        add("covering", 64, 8192, k)
        add("pa", 16, 8192, k)
    # one full (4096, z, d, d) chunk at z = 128
    add("pa", 128, 4096, 0)
    return jobs


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Write the inputs of ``workload`` for ``seed`` and return its jobs."""
    variant = seed % VARIANTS
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "spectrum":
        return _spectrum(variant, workdir)
    if workload == "sandwich":
        return _sandwich(variant, workdir)
    if workload == "protocol-exact":
        return _protocol_exact(variant, workdir)
    if workload == "protocol-mc":
        return _protocol_mc(variant, workdir, len(os.sched_getaffinity(0)))
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
