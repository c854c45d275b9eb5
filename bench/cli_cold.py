"""The cli_cold workload: cold ``python -m keysec.cli`` processes.

keysec is imported here only for the warm in-process calls of a traced
run, so that the workload's set-up does not pay for an import that its
operations, each a fresh process, pay again.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import oracles
from tracing import NO_TRACE, Tracer


def _json_file(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _matrix_entries(rows) -> list:
    return [[v.real, v.imag] for row in rows for v in row]


def _random_bloch(r: random.Random, radius: float) -> tuple:
    while True:
        v = tuple(r.uniform(-1.0, 1.0) for _ in range(3))
        if sum(x * x for x in v) <= 1.0:
            return tuple(radius * x for x in v)


class CliCold:
    """Cold ``python -m keysec.cli --format machine`` processes, one at a time."""

    name = "cli_cold"
    round_len = 11
    nominal_ms = 750.0
    RNG_COUNT = 10 ** 5
    IMPORTS = ("keysec", "scipy.optimize", "numpy")

    def __init__(self, seed: int, workdir: Path):
        r = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        f = {}
        f["p"] = _json_file(workdir / "p.dist",
                            {"outcome_bits": 1, "masses": [0.5, 0.5]})
        f["q"] = _json_file(workdir / "q.dist",
                            {"outcome_bits": 1, "masses": [0.75, 0.25]})
        self.s4 = (r.uniform(0.01, 0.5), r.getrandbits(4))
        f["s4"] = _json_file(workdir / "s4.dist", {
            "outcome_bits": 4, "spike": {
                "outcome": format(self.s4[1], "04b"), "epsilon": self.s4[0]}})
        self.bloch = (_random_bloch(r, 0.95), _random_bloch(r, 0.95))
        n = _random_bloch(r, 1.0)
        norm = sum(x * x for x in n) ** 0.5
        self.povm_axis = tuple(x / norm for x in n)
        for name, vec in zip(("rho", "sigma"), self.bloch):
            f[name] = _json_file(workdir / f"{name}.mat", {
                "dim": 2,
                "entries": _matrix_entries(oracles.bloch_density(vec))})
        f["povm"] = _json_file(workdir / "m.povm", {"dim": 2, "elements": [
            _matrix_entries(oracles.bloch_density(self.povm_axis)),
            _matrix_entries(oracles.bloch_density(
                tuple(-x for x in self.povm_axis)))]})
        self.k8 = (10.0 ** r.uniform(-3.0, -1.0), r.getrandbits(8))
        f["k8"] = _json_file(workdir / "k8.dist", {
            "outcome_bits": 8, "spike": {
                "outcome": format(self.k8[1], "08b"), "epsilon": self.k8[0]}})
        self.p1_bits = [r.uniform(0.3, 0.45) for _ in range(8)]
        masses = [1.0]
        for p in self.p1_bits:
            masses = [m * b for m in masses for b in (1.0 - p, p)]
        f["x8"] = _json_file(workdir / "x8.dist",
                             {"outcome_bits": 8, "masses": masses})
        self.c8 = r.getrandbits(8)
        self.rng_seed = r.getrandbits(32)
        self.invocations = [
            (["bounds", "--eps-bar", "1e-6", "--key-len", "10000"],
             self._check_bounds),
            (["bounds", "--eps-bar", "0", "--key-len", "8"],
             self._check_bounds_zero),
            (["rate", "--s-target", "1e-14", "--n", "10000000"],
             self._check_rate),
            (["coupling", "--p", f["p"], "--q", f["q"]], self._check_pair),
            (["attack", "--mode", "hash", "--key", "101", "--seed", "0110",
              "--out-len", "2"], self._check_hash),
            (["report"], self._check_report),
            (["coupling", "--p", f["s4"], "--contradiction"],
             self._check_contradiction),
            (["detect", "--rho", f["rho"], "--sigma", f["sigma"],
              "--povm", f["povm"]], self._check_detect),
            (["attack", "--mode", "kpa", "--key-dist", f["k8"],
              "--known-prefix", format(self.k8[1] >> 5, "03b")],
             self._check_kpa),
            (["attack", "--mode", "ciphertext-only",
              "--ciphertext", format(self.c8, "08b"),
              "--plaintext-dist", f["x8"], "--key-dist", f["k8"]],
             self._check_coa),
            (["rngtest", "--bias", "1e-4", "--block-len", "8",
              "--count", str(self.RNG_COUNT), "--seed", str(self.rng_seed)],
             self._check_rngtest),
        ]
        self._rng_deltas: dict[int, float] = {}

    def _spawn(self, args: list[str]):
        """Run a child to its end; return its exit code, output and peak RSS.

        The child is reaped with ``wait4`` for its own ``ru_maxrss``.  Its
        standard error is read after its output, which is safe for the
        short messages the CLI writes there.
        """
        proc = subprocess.Popen(args, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, cwd=self.workdir)
        out = proc.stdout.read()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, err, usage.ru_maxrss / 1024.0

    def op(self, i: int, tr=NO_TRACE):
        argv = self.invocations[i % self.round_len][0]
        return self._spawn([sys.executable, "-m", "keysec.cli",
                            "--format", "machine", *argv])

    def record(self, i: int, out) -> dict:
        code, stdout, stderr, rss = out
        try:
            doc = json.loads(stdout) if code == 0 else None
        except json.JSONDecodeError:
            doc = None
        return {"code": code, "doc": doc, "rss_mb": rss,
                "stderr": stderr.decode(errors="replace")[-2000:]}

    def peak_rss_mb(self, records: list) -> float:
        return max((rec["rss_mb"] for rec in records if rec is not None),
                   default=0.0)

    def check(self, i: int, rec: dict) -> bool:
        check = self.invocations[i % self.round_len][1]
        return rec["code"] == 0 and rec["doc"] is not None \
            and check(rec["doc"])

    # Reference values, recomputed independently of keysec.

    def _rng_delta(self, seed: int) -> float:
        if seed not in self._rng_deltas:
            cdf = oracles.cdf(oracles.bernoulli_block_masses(1e-4, 8))
            self._rng_deltas[seed] = oracles.empirical_distance(
                oracles.sample_counts(cdf, seed, self.RNG_COUNT))
        return self._rng_deltas[seed]

    @staticmethod
    def _headline_ok(d: dict) -> bool:
        markov = oracles.mpmath.cbrt(oracles.mpmath.mpf("1e-6"))
        f = float(-oracles.mpmath.log(markov, 2))
        return (oracles.close(d["yuen_bound"], 1e-6, 1e-12)
                and oracles.close(d["markov_bound"], float(markov), 1e-12)
                and oracles.close(d["leak_interval_f"],
                                  oracles.math.log2(100.0), 1e-12)
                and oracles.close(d["leak_interval_f"], f, 1e-12)
                and oracles.close(d["leaked_bits"], 1e4 / f, 1e-12)
                and d["required_epsilon_log2"] == -10000.0
                and oracles.close(d["required_epsilon_log10"],
                                  -10000 * oracles.math.log10(2.0), 1e-12)
                and "required_epsilon" not in d)

    def _check_bounds(self, d: dict) -> bool:
        return (d["eps_bar"] == 1e-6 and d["key_len"] == 10000
                and oracles.close(d["yuen_bound_log10"], -6.0, 0, 1e-9)
                and self._headline_ok(d))

    def _check_bounds_zero(self, d: dict) -> bool:
        return (d["yuen_bound"] == 2.0 ** -8 and d["markov_bound"] == 2.0 ** -8
                and d["required_epsilon"] == 2.0 ** -8)

    @staticmethod
    def _rate_ok(eps_bar: float, key_len: int, rate: float, n: int,
                 s_target: float) -> bool:
        return (key_len >= 1
                and oracles.key_length_agrees(key_len, n, 0.1007, eps_bar,
                                              1e-10, 1e-15)
                and abs(eps_bar / key_len - s_target) <= 0.05 * s_target
                and oracles.close(rate, key_len / n, 1e-15))

    def _check_rate(self, d: dict) -> bool:
        h = oracles.binary_entropy_mp(0.1007)
        return (self._rate_ok(d["eps_bar"], d["key_len"], d["rate"],
                              10 ** 7, 1e-14)
                and oracles.close(d["leak_ec"], float(1.1 * 10 ** 7 * h), 1e-12)
                and oracles.close(d["eps_bar"], 1.0e-9, 0.05)
                and oracles.close(d["rate"], 1.05e-2, 0.05))

    @staticmethod
    def _check_pair(d: dict) -> bool:
        return (d["statistical_distance"] == 0.25
                and oracles.close(d["maximal_coupling_mismatch"], 0.25, 1e-12)
                and oracles.close(d["oracle_min_mismatch"], 0.25, 0, 1e-9))

    @staticmethod
    def _check_hash(d: dict) -> bool:
        expected = "".join(map(str, oracles.toeplitz_hash(
            [1, 0, 1], [0, 1, 1, 0], 2)))
        return d["output"] == expected == "11"

    def _check_report(self, d: dict) -> bool:
        n = 10 ** 7
        rate_n7 = d["rate_n10000000"]
        kpa_guess = format(0b101011001110 % (1 << 8), "08b")
        return (self._headline_ok(d)
                and oracles.close(d["pipeline_efficiency"], 6e-6, 1e-12)
                and oracles.close(d["contradiction_delta"],
                                  oracles.spike_distance(0.1, 4), 1e-12)
                and oracles.close(d["contradiction_maximal_mismatch"],
                                  oracles.spike_distance(0.1, 4), 1e-12)
                and oracles.close(d["contradiction_independent_failure"],
                                  15 / 16, 1e-15)
                and oracles.close(d["copy_channel_delta_joint"], 0.1, 1e-12)
                and oracles.close(d["copy_channel_mismatch"], 0.1, 1e-12)
                and self._rate_ok(d["rate_n10000000_eps_bar"],
                                  round(rate_n7 * n), rate_n7, n, 1e-14)
                and str(d["rate_n10000"]).startswith("no-solution")
                and d["kpa_map_guess"] == kpa_guess
                and oracles.close(d["kpa_posterior"],
                                  oracles.kpa_posterior(2.0 ** -4, 12, 4),
                                  1e-13)
                and d["rng_model_delta_1bit"] == 1e-4
                and oracles.close(d["rng_empirical_delta"],
                                  self._rng_delta(1), 1e-9)
                and d["rng_exactly_uniform"] is False)

    def _check_contradiction(self, d: dict) -> bool:
        eps = self.s4[0]
        return (d["outcome_bits"] == 4
                and oracles.close(d["delta_to_uniform"],
                                  oracles.spike_distance(eps, 4), 1e-12)
                and oracles.close(d["maximal_coupling_mismatch"],
                                  d["delta_to_uniform"], 1e-12)
                and oracles.close(d["independent_failure"], 15 / 16, 1e-15)
                and d["independent_failure_complement_log2"] == -4.0)

    def _check_detect(self, d: dict) -> bool:
        r1, r2 = self.bloch
        t = oracles.qubit_trace_distance(r1, r2)
        return (oracles.close(d["trace_distance"], t, 0, 1e-12)
                and oracles.close(d["helstrom_min_error"], (1 - t) / 2, 0, 1e-12)
                and oracles.close(d["overlap"],
                                  oracles.qubit_overlap(r1, r2), 0, 1e-12)
                and oracles.close(d["measured_distance"],
                                  oracles.qubit_measured_distance(
                                      r1, r2, self.povm_axis), 0, 1e-12))

    def _check_kpa(self, d: dict) -> bool:
        eps, k_star = self.k8
        return (d["remainder_bits"] == 5
                and d["map_guess"] == format(k_star % 32, "05b")
                and oracles.close(d["map_posterior"],
                                  oracles.kpa_posterior(eps, 8, 3), 1e-13))

    def _check_coa(self, d: dict) -> bool:
        eps, k_star = self.k8
        post, guess = oracles.coa_posterior(eps, 8, k_star, self.c8,
                                            self.p1_bits)
        return (oracles.close(d["map_posterior"], post, 1e-13)
                and (guess is None or d["map_guess"] == format(guess, "08b"))
                and oracles.close(d["avg_success"],
                                  oracles.spike_max_mass(eps, 8), 1e-13))

    def _check_rngtest(self, d: dict) -> bool:
        return (d["count"] == self.RNG_COUNT and d["seed"] == self.rng_seed
                and oracles.close(d["model_delta"],
                                  oracles.bernoulli_distance_mp(1e-4, 8), 1e-9)
                and oracles.close(d["empirical_delta"],
                                  self._rng_delta(self.rng_seed), 1e-9)
                and d["exactly_uniform"] is False
                and d["independent_failure_complement_log2"] == -8.0)

    # Tracing: import costs from -X importtime, and warm in-process calls.

    def import_times(self) -> dict[str, float]:
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import keysec"],
            capture_output=True, text=True, check=True, cwd=self.workdir)
        found = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in self.IMPORTS:
                found.setdefault(parts[2].strip(),
                                 int(parts[1].strip()) / 1e3)
        return {f"import.{name.replace('.', '_')}.ms": found[name]
                for name in self.IMPORTS}

    def trace_round(self, tr: Tracer):
        from keysec import cli

        for name, value in self.import_times().items():
            tr.add(name, value)
        for argv, _ in self.invocations:
            with contextlib.redirect_stdout(io.StringIO()):
                with tr.span(f"cli.main.{argv[0]}.ms"):
                    cli.main(["--format", "machine", *argv])

    def probe(self, i: int, tr: Tracer, first_round: bool):
        if i % self.round_len == self.round_len - 1:
            self.trace_round(tr)

    layer_metrics = (
        ("import.keysec.ms", "ms"),
        ("import.scipy_optimize.ms", "ms"),
        ("import.numpy.ms", "ms"),
    ) + tuple((f"cli.main.{sub}.ms", "ms") for sub in (
        "bounds", "rate", "coupling", "detect", "attack", "rngtest", "report"))
