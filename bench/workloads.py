"""The three in-process workloads: rng_uniformity, pa_sweep, key_estimation.

Each workload builds its inputs from the workload seed, runs one kind of
operation (a fixed bundle of public keysec calls), keeps a compact record
of every operation's outputs, and checks those records against the
independent computations in ``oracles``.  Operation ``i`` depends only on
the seed and ``i``, so every run of a workload performs the same calls in
the same order.

In a traced run each public call inside an operation is wrapped in a
span; calls that a bundle makes internally are probed by calling the
function directly on the same inputs, and call counts come from wrapping
the public function for one extra, untimed pass.
"""

from __future__ import annotations

import functools
import random
import time
from pathlib import Path

import numpy as np

from keysec import attacks, bounds, coupling, probdist, rngtest
from keysec.bits import BitString

import oracles
from tracing import NO_TRACE, Tracer, counting, elapsed_ms, peak_alloc_mb


# -- rng_uniformity -------------------------------------------------------------


class RngUniformity:
    """The uniformity-failure experiment at 10^6 blocks per source."""

    name = "rng_uniformity"
    round_len = 1
    nominal_ms = 330.0
    COUNT = 10 ** 6
    BIAS = 1e-4
    SPOT_INDICES = (0, 1, 2, 3, 4096, 123_456, 499_999, 500_000,
                    777_777, 999_998, 999_999)

    def __init__(self, seed: int, workdir: Path):
        r = random.Random(seed)
        self.seed = seed
        self.markov = (0.5, 0.45 + 0.1 * r.random(), 0.45 + 0.1 * r.random())
        init1, p01, p11 = self.markov
        self.sources = (
            (rngtest.BernoulliSource(self.BIAS), 16),
            (rngtest.MarkovSource(
                transition=probdist.ConditionalChannel(
                    1, 1, [[1.0 - p01, p01], [1.0 - p11, p11]]),
                initial=probdist.Distribution(1, [1.0 - init1, init1])), 8),
        )

    def sample_seed(self, i: int, s: int) -> int:
        return oracles.splitmix64_at(self.seed, 2 * i + s)

    def op(self, i: int, tr=NO_TRACE):
        out = []
        for s, (model, block_len) in enumerate(self.sources):
            with tr.span("rngtest.sample_blocks.ms"):
                sample = rngtest.sample_blocks(model, block_len, self.COUNT,
                                               self.sample_seed(i, s))
            with tr.span("rngtest.uniformity_failure_report.ms"):
                report = rngtest.uniformity_failure_report(sample)
            with tr.span("rngtest.model_distance_to_uniform.ms"):
                distance = rngtest.model_distance_to_uniform(model, block_len)
            out.append((sample, report, distance))
        return out

    def record(self, i: int, out) -> list[dict]:
        rec = []
        for sample, report, distance in out:
            values = sample.values
            counts = np.bincount(values, minlength=1 << sample.block_len)
            rec.append({
                "count": sample.count, "block_len": sample.block_len,
                "seed": sample.seed,
                "spots": [int(values[k]) for k in self.SPOT_INDICES],
                "counts_delta": oracles.empirical_distance(counts),
                "counts_uniform": bool(np.all(counts == counts[0])),
                "empirical_delta": report.empirical_delta,
                "exactly_uniform": report.exactly_uniform,
                "log2_complement": report.independent_failure.log2_complement,
                "model_delta": distance,
            })
        return rec

    @functools.cached_property
    def expected(self) -> list[tuple]:
        bern = oracles.bernoulli_block_masses(self.BIAS, 16)
        init1, p01, p11 = self.markov
        mark = oracles.markov_block_masses(init1, p01, p11, 8)
        return [(oracles.cdf(bern),
                 oracles.bernoulli_distance_mp(self.BIAS, 16)),
                (oracles.cdf(mark), oracles.distance_to_uniform(mark))]

    def check(self, i: int, rec: list[dict]) -> bool:
        return len(rec) == len(self.sources) and all(
            self._source_ok(i, s, r, cdf, delta)
            for s, (r, (cdf, delta)) in enumerate(zip(rec, self.expected)))

    def _source_ok(self, i: int, s: int, r: dict, cdf, delta: float) -> bool:
        block_len = self.sources[s][1]
        return (r["count"] == self.COUNT
                and r["block_len"] == block_len
                and r["seed"] == self.sample_seed(i, s)
                and all(oracles.sample_agrees(cdf, r["seed"], k, v)
                        for k, v in zip(self.SPOT_INDICES, r["spots"]))
                and oracles.close(r["model_delta"], delta, 1e-9)
                and oracles.close(r["empirical_delta"], r["counts_delta"],
                                  1e-9)
                and r["exactly_uniform"] == (
                    self.COUNT % (1 << block_len) == 0
                    and r["counts_uniform"])
                and r["log2_complement"] == -block_len)

    def probe(self, i: int, tr: Tracer, first_round: bool):
        for s, (model, block_len) in enumerate(self.sources):
            tr.add("rngtest.blocks_per_op", self.COUNT)
            seed = self.sample_seed(i, s)
            tr.add("rngtest.splitmix64.ms",
                   elapsed_ms(rngtest.splitmix64, seed, self.COUNT))
            tr.add("rngtest.block_distribution.ms",
                   elapsed_ms(rngtest.block_distribution, model, block_len))
            if first_round:
                tr.ops[-1]["rngtest.sample_blocks.peak_alloc_mb"] = max(
                    tr.ops[-1].get("rngtest.sample_blocks.peak_alloc_mb", 0.0),
                    peak_alloc_mb(rngtest.sample_blocks, model, block_len,
                                  self.COUNT, seed))
        op = tr.ops[-1]
        op["rngtest.inverse_cdf.ms"] = (op["rngtest.sample_blocks.ms"]
                                        - op["rngtest.splitmix64.ms"]
                                        - op["rngtest.block_distribution.ms"])

    layer_metrics = (
        ("rngtest.sample_blocks.ms", "ms"),
        ("rngtest.splitmix64.ms", "ms"),
        ("rngtest.block_distribution.ms", "ms"),
        ("rngtest.inverse_cdf.ms", "ms"),
        ("rngtest.uniformity_failure_report.ms", "ms"),
        ("rngtest.model_distance_to_uniform.ms", "ms"),
        ("rngtest.sample_blocks.peak_alloc_mb", "MB"),
        ("rngtest.blocks_per_op", "count"),
    )


# -- pa_sweep -------------------------------------------------------------------


class PaSweep:
    """Privacy amplification on 10-bit keys with 4-bit side information."""

    name = "pa_sweep"
    POOL = 8
    round_len = POOL
    nominal_ms = 60.0
    KEY_BITS = 10
    SIDE_BITS = 4
    OUT_LEN = 5
    N_SEEDS = 4

    def __init__(self, seed: int, workdir: Path):
        g = np.random.default_rng(seed)
        seed_bits = self.KEY_BITS + self.OUT_LEN - 1
        self.inputs = []
        for _ in range(self.POOL):
            w = g.random((1 << self.KEY_BITS, 1 << self.SIDE_BITS)) ** 2
            joint = probdist.JointDistribution(self.KEY_BITS, self.SIDE_BITS,
                                               w / w.sum())
            seeds = [BitString.from_index(int(v), seed_bits)
                     for v in g.integers(0, 1 << seed_bits, self.N_SEEDS)]
            self.inputs.append((joint, seeds))

    def op(self, i: int, tr=NO_TRACE):
        joint, seeds = self.inputs[i % self.POOL]
        with tr.span("attacks.pa_effect_on_guessing.ms"):
            return attacks.pa_effect_on_guessing(joint, self.OUT_LEN, seeds)

    def record(self, i: int, out) -> dict:
        return {"before": out.before, "after": list(out.after),
                "after_avg": out.after_avg}

    @functools.cached_property
    def expected(self) -> list[dict]:
        return [self._expected(j) for j in range(self.POOL)]

    def _expected(self, j: int) -> dict:
        joint, seeds = self.inputs[j]
        rows = joint.masses.tolist()
        after = [oracles.guessing_after_hash(
                     rows, oracles.hash_table(list(s.bits), self.KEY_BITS,
                                              self.OUT_LEN), self.OUT_LEN)
                 for s in seeds]
        identity = attacks.pa_effect_on_guessing(
            joint, self.KEY_BITS, [attacks.identity_seed(self.KEY_BITS)])
        return {"before": oracles.conditional_guessing(rows), "after": after,
                "identity_holds": identity.after[0] == identity.before}

    def check(self, i: int, rec: dict) -> bool:
        exp = self.expected[i % self.POOL]
        return (exp["identity_holds"]
                and oracles.close(rec["before"], exp["before"], 1e-12)
                and len(rec["after"]) == self.N_SEEDS
                and all(oracles.close(a, b, 1e-12)
                        for a, b in zip(rec["after"], exp["after"]))
                and all(a >= rec["before"] for a in rec["after"])
                and oracles.close(rec["after_avg"],
                                  sum(exp["after"]) / self.N_SEEDS, 1e-12))

    def probe(self, i: int, tr: Tracer, first_round: bool):
        joint, seeds = self.inputs[i % self.POOL]
        n_keys = 1 << self.KEY_BITS
        start = time.perf_counter()
        keys = [BitString.from_index(kv, self.KEY_BITS) for kv in range(n_keys)]
        tr.add("bits.BitString.from_index.us",
               (time.perf_counter() - start) * 1e6 / n_keys)
        start = time.perf_counter()
        hashed = [attacks.toeplitz_hash(k, s, self.OUT_LEN)
                  for s in seeds for k in keys]
        tr.add("attacks.toeplitz_hash.us",
               (time.perf_counter() - start) * 1e6 / len(hashed))
        start = time.perf_counter()
        for h in hashed:
            h.to_index()
        tr.add("bits.BitString.to_index.us",
               (time.perf_counter() - start) * 1e6 / len(hashed))
        tr.add("probdist.conditional_guessing_probability.ms",
               elapsed_ms(probdist.conditional_guessing_probability, joint))
        if first_round:
            calls = [0]
            with counting(attacks, "toeplitz_hash", calls):
                self.op(i)
            tr.add("attacks.toeplitz_hash.calls_per_op", calls[0])

    layer_metrics = (
        ("attacks.pa_effect_on_guessing.ms", "ms"),
        ("attacks.toeplitz_hash.us", "us"),
        ("attacks.toeplitz_hash.calls_per_op", "count"),
        ("bits.BitString.from_index.us", "us"),
        ("bits.BitString.to_index.us", "us"),
        ("probdist.conditional_guessing_probability.ms", "ms"),
    )


# -- key_estimation -------------------------------------------------------------


class KeyEstimation:
    """The paper's key-estimation attack at the 2^20 dense cap.

    One operation runs the attack bundle once on each of six input sets
    and the contradiction report on three 11-bit laws, so that it lasts
    long enough (about 300 ms) for a slow patch of a second or two on the
    host not to move the tail of a run, and so that no one layer takes
    more than about half of it.
    """

    name = "key_estimation"
    POOL = 6
    CONTRA_POOL = 3
    round_len = 1
    nominal_ms = 300.0
    KEY_BITS = 20
    PREFIX_BITS = 4
    CONTRA_BITS = 11
    RATE_N = 10 ** 7

    def __init__(self, seed: int, workdir: Path):
        r = random.Random(seed)
        l = self.KEY_BITS
        self.uniform = probdist.Distribution.uniform(l)
        self.rate_params = bounds.default_rate_params(self.RATE_N)
        self.cipher_seed = r.getrandbits(64)
        self.inputs = []
        for _ in range(self.POOL):
            eps = 10.0 ** r.uniform(-4.0, -2.0)
            k_star = r.getrandbits(l)
            p1_bits = [r.uniform(0.3, 0.45) for _ in range(l)]
            px = np.ones(1)
            for p in p1_bits:
                px = np.outer(px, [1.0 - p, p]).ravel()
            lp_pair = []
            for _ in range(2):
                w = [r.random() + 0.05 for _ in range(6)] + [0.0, 0.0]
                r.shuffle(w)
                lp_pair.append(probdist.Distribution(3, [v / sum(w) for v in w]))
            self.inputs.append({
                "eps": eps, "k_star": k_star, "p1_bits": p1_bits,
                "p_k": probdist.Distribution.spike(l, eps, k_star)
                       .expand_dense(),
                "p_x": probdist.Distribution(l, px),
                "prefix": BitString.from_index(k_star >> (l - self.PREFIX_BITS),
                                               self.PREFIX_BITS),
                "lp_pair": lp_pair,
                "s_target": 10.0 ** r.uniform(-14.5, -13.5),
            })
        self.contra = []
        for _ in range(self.CONTRA_POOL):
            c_eps = 10.0 ** r.uniform(-3.0, -1.0)
            law = probdist.Distribution.spike(
                self.CONTRA_BITS, c_eps, r.getrandbits(self.CONTRA_BITS))
            self.contra.append((c_eps, law.expand_dense()))

    def ciphertext(self, i: int) -> int:
        return oracles.splitmix64_at(self.cipher_seed, i) >> (64 - self.KEY_BITS)

    def op(self, i: int, tr=NO_TRACE):
        sets = [self.bundle(inp, self.POOL * i + j, tr)
                for j, inp in enumerate(self.inputs)]
        reports = []
        for _, law in self.contra:
            with tr.span("coupling.contradiction_report.ms"):
                reports.append(coupling.contradiction_report(law))
        return sets, reports

    def bundle(self, inp: dict, c_index: int, tr):
        c = BitString.from_index(self.ciphertext(c_index), self.KEY_BITS)
        with tr.span("attacks.ciphertext_only_attack.ms"):
            coa = attacks.ciphertext_only_attack(c, inp["p_x"], inp["p_k"])
        with tr.span("attacks.kpa_next_bits.ms"):
            kpa = attacks.kpa_next_bits(inp["p_k"], inp["prefix"])
        with tr.span("probdist.statistical_distance.ms"):
            distance = probdist.statistical_distance(inp["p_k"], self.uniform)
        with tr.span("coupling.min_mismatch_oracle.ms"):
            lp = coupling.min_mismatch_oracle(*inp["lp_pair"])
        with tr.span("bounds.epsilon_for_security_rate.ms"):
            rate = bounds.epsilon_for_security_rate(inp["s_target"],
                                                    self.rate_params)
        return coa, kpa, distance, lp, rate

    def record(self, i: int, out) -> dict:
        sets, reports = out
        return {"sets": [{"coa_post": coa.map_posterior,
                          "coa_guess": coa.map_guess.to_index(),
                          "coa_avg": coa.avg_success,
                          "kpa_post": kpa.map_posterior,
                          "kpa_guess": kpa.map_guess.to_index(),
                          "distance": distance, "lp": lp,
                          "eps_bar": rate.eps_bar, "key_len": rate.l,
                          "rate": rate.rate}
                         for coa, kpa, distance, lp, rate in sets],
                "contra": [{"delta": rep.delta,
                            "mismatch": rep.maximal_mismatch,
                            "independent": rep.independent_failure}
                           for rep in reports]}

    @functools.cached_property
    def expected(self) -> dict:
        l, m = self.KEY_BITS, self.PREFIX_BITS
        sets = []
        for inp in self.inputs:
            a, b = (d.masses.tolist() for d in inp["lp_pair"])
            sets.append({
                "avg": oracles.spike_max_mass(inp["eps"], l),
                "kpa": oracles.kpa_posterior(inp["eps"], l, m),
                "distance": oracles.spike_distance(inp["eps"], l),
                "lp": oracles.tv_distance(a, b),
            })
        return {"sets": sets,
                "delta": [oracles.spike_distance(c_eps, self.CONTRA_BITS)
                          for c_eps, _ in self.contra],
                "independent": oracles.one_minus_pow2(self.CONTRA_BITS)}

    def check(self, i: int, rec: dict) -> bool:
        exp = self.expected
        return (len(rec["sets"]) == self.POOL
                and all(self._bundle_ok(r, inp, e,
                                        self.ciphertext(self.POOL * i + j))
                        for j, (r, inp, e) in enumerate(
                            zip(rec["sets"], self.inputs, exp["sets"])))
                and len(rec["contra"]) == self.CONTRA_POOL
                and all(oracles.close(r["delta"], delta, 1e-12)
                        and oracles.close(r["mismatch"], r["delta"], 1e-12)
                        and oracles.close(r["independent"],
                                          exp["independent"], 1e-15)
                        for r, delta in zip(rec["contra"], exp["delta"])))

    def _bundle_ok(self, rec: dict, inp: dict, exp: dict, c: int) -> bool:
        l, m = self.KEY_BITS, self.PREFIX_BITS
        params = self.rate_params
        post, guess = oracles.coa_posterior(inp["eps"], l, inp["k_star"], c,
                                            inp["p1_bits"])
        return (oracles.close(rec["coa_post"], post, 1e-13)
                and (guess is None or rec["coa_guess"] == guess)
                and oracles.close(rec["coa_avg"], exp["avg"], 1e-13)
                and oracles.close(rec["kpa_post"], exp["kpa"], 1e-13)
                and rec["kpa_guess"] == inp["k_star"] % (1 << (l - m))
                and oracles.close(rec["distance"], exp["distance"], 1e-12)
                and oracles.close(rec["lp"], exp["lp"], 1e-9, 1e-12)
                and rec["key_len"] >= 1
                and oracles.key_length_agrees(
                    rec["key_len"], params.n, params.q, rec["eps_bar"],
                    params.p_fail, params.eps_cor)
                and abs(rec["eps_bar"] / rec["key_len"] - inp["s_target"])
                <= 0.05 * inp["s_target"]
                and rec["rate"] == rec["key_len"] / params.n)

    def probe(self, i: int, tr: Tracer, first_round: bool):
        for inp in self.inputs:
            tr.add("probdist.Distribution.ms",
                   elapsed_ms(probdist.Distribution, self.KEY_BITS,
                              inp["p_k"].masses))
        uniform = probdist.Distribution.uniform(self.CONTRA_BITS)
        for _, law in self.contra:
            tr.add("coupling.maximal_coupling.ms",
                   elapsed_ms(coupling.maximal_coupling, law, uniform))
        if first_round:
            calls = [0]
            with counting(bounds, "extractable_key_length", calls):
                for inp in self.inputs:
                    bounds.epsilon_for_security_rate(inp["s_target"],
                                                     self.rate_params)
            tr.add("bounds.extractable_key_length.calls_per_op", calls[0])
            tr.add("coupling.contradiction_report.peak_alloc_mb",
                   peak_alloc_mb(coupling.contradiction_report,
                                 self.contra[0][1]))

    layer_metrics = (
        ("attacks.ciphertext_only_attack.ms", "ms"),
        ("attacks.kpa_next_bits.ms", "ms"),
        ("probdist.Distribution.ms", "ms"),
        ("probdist.statistical_distance.ms", "ms"),
        ("coupling.contradiction_report.ms", "ms"),
        ("coupling.maximal_coupling.ms", "ms"),
        ("coupling.min_mismatch_oracle.ms", "ms"),
        ("bounds.epsilon_for_security_rate.ms", "ms"),
        ("bounds.extractable_key_length.calls_per_op", "count"),
        ("coupling.contradiction_report.peak_alloc_mb", "MB"),
    )
