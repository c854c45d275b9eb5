"""Command-line surface: calculators, attacks, and report emission.

Subcommands map one-to-one onto the library modules (bounds, rate,
coupling, detect, attack, rngtest) plus a composite ``report`` that
recomputes every reference worked example in one run.  Reports are
flat key-value documents; ``--format machine`` emits a single JSON
object echoing every input and output, with log10 fields for all
probabilities.  Exit codes: 0 success, 2 validation error, 3 the rate
solver found no solution.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import attacks, bounds, coupling, probdist, quantum_detect, rngtest
from .bits import BitString, _within

TINY_PRINT_LOG10 = -300.0  # below this, only exponent fields are reported


def _prob_fields(name: str, lp: bounds.LogProb) -> dict:
    """Value plus exponent forms; the value is dropped when unprintable."""
    fields = {
        f"{name}_log2": lp.log2_value,
        f"{name}_log10": lp.log10,
    }
    if lp.log10 > TINY_PRINT_LOG10:
        fields[name] = lp.value
    if lp.log2_complement is not None:
        fields[f"{name}_complement_log2"] = lp.log2_complement
        fields[f"{name}_complement_log10"] = lp.complement_log10
    return fields


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "machine":
        # a non-finite value raises ValueError (exit 2), never a NaN token
        print(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False))
        return
    width = max(len(k) for k in doc)
    for key, value in doc.items():
        print(f"{key:<{width}}  {value}")


def _load(loader, path: str, kind: str):
    """Read one input file, mapping its failures to validation errors."""
    try:
        return loader(path)
    except FileNotFoundError:
        raise ValueError(f"{kind} file not found: {path}")
    except ValueError as exc:
        raise ValueError(f"malformed {kind} file {path}: {exc}")


# -- subcommand handlers -----------------------------------------------------


def _cmd_bounds(args) -> dict:
    _within(args.eps_bar, "--eps-bar", 0, 1)
    doc = {"command": "bounds", "eps_bar": args.eps_bar,
           "key_len": args.key_len}
    doc.update(_prob_fields("yuen_bound",
                            bounds.yuen_upper_bound(args.eps_bar, args.key_len)))
    markov = bounds.markov_individual_bound(args.eps_bar, args.key_len)
    doc.update(_prob_fields("markov_bound", markov))
    doc.update(_prob_fields("required_epsilon",
                            bounds.required_epsilon(args.key_len)))
    if 0.0 < markov.value < 1.0:
        leak = bounds.leakage_profile(args.key_len, markov.value)
        doc["leak_interval_f"] = leak.f
        doc["leaked_bits"] = leak.leaked_bits
        doc["leak_convention"] = (
            "f = log2(1/eps); the reciprocal-length reading log(1/l) is "
            "rejected as inconsistent with the worked leakage figure")
    return doc


def _cmd_rate(args) -> dict:
    params = bounds.FiniteKeyParams(
        n=args.n, q=args.q, mu=args.mu, leak_ec=args.leak_ec,
        p_fail=args.p_fail, eps_cor=args.eps_cor)
    solution = bounds.epsilon_for_security_rate(args.s_target, params)
    return {
        "command": "rate", "n": args.n, "q": args.q, "mu": args.mu,
        "leak_ec": params.effective_leak_ec, "p_fail": args.p_fail,
        "eps_cor": args.eps_cor, "s_target": args.s_target,
        "eps_bar": solution.eps_bar,
        "eps_bar_log10": math.log10(solution.eps_bar),
        "key_len": solution.l,
        "rate": solution.rate,
        "rate_log10": math.log10(solution.rate),
    }


def _cmd_coupling(args) -> dict:
    p = _load(probdist.load_distribution, args.p, "distribution")
    if args.contradiction:
        report = coupling.contradiction_report(p)
        failure = coupling.independent_coupling_failure(p.outcome_bits)
        doc = {"command": "coupling", "mode": "contradiction",
               "p_file": args.p, "outcome_bits": p.outcome_bits,
               "delta_to_uniform": report.delta,
               "maximal_coupling_mismatch": report.maximal_mismatch,
               "independent_failure": report.independent_failure}
        doc.update(_prob_fields("independent_failure", failure))
        return doc
    if args.q is None:
        raise ValueError("coupling needs --q FILE (or --contradiction)")
    q = _load(probdist.load_distribution, args.q, "distribution")
    doc = {"command": "coupling", "mode": "pair",
           "p_file": args.p, "q_file": args.q,
           "outcome_bits": p.outcome_bits,
           "statistical_distance": probdist.statistical_distance(p, q),
           "maximal_coupling_mismatch": coupling.maximal_mismatch(p, q)}
    # LP confirmation whenever both laws are dense and oracle-sized
    if (p.outcome_bits <= probdist.DENSE_BITS_CAP
            and p.support_size() <= coupling.ORACLE_SUPPORT_CAP
            and q.support_size() <= coupling.ORACLE_SUPPORT_CAP):
        doc["oracle_min_mismatch"] = coupling.min_mismatch_oracle(p, q)
    return doc


def _cmd_detect(args) -> dict:
    rho = _load(quantum_detect.load_matrix, args.rho, "matrix")
    sigma = _load(quantum_detect.load_matrix, args.sigma, "matrix")
    doc = {"command": "detect", "rho_file": args.rho,
           "sigma_file": args.sigma, "dim": rho.dim, "prior1": args.prior1,
           "trace_distance": quantum_detect.trace_distance_q(rho, sigma),
           "helstrom_min_error": quantum_detect.helstrom_min_error(
               rho, sigma, args.prior1),
           "overlap": quantum_detect.overlap(rho, sigma)}
    if args.povm is not None:
        povm = _load(quantum_detect.load_povm, args.povm, "POVM")
        doc["povm_file"] = args.povm
        doc["measured_distance"] = quantum_detect.measured_distance(
            rho, sigma, povm)
    return doc


def _attack_report_fields(report: attacks.AttackReport) -> dict:
    return {
        "map_guess": str(report.map_guess),
        "map_posterior": report.map_posterior,
        "map_posterior_log10": math.log10(report.map_posterior),
        "avg_success": report.avg_success,
        "avg_success_log10": math.log10(report.avg_success),
    }


def _cmd_attack(args) -> dict:
    if args.mode == "ciphertext-only":
        if args.ciphertext is None or args.plaintext_dist is None \
                or args.key_dist is None:
            raise ValueError("ciphertext-only mode needs --ciphertext, "
                             "--plaintext-dist and --key-dist")
        c = BitString.from_str(args.ciphertext)
        p_x = _load(probdist.load_distribution, args.plaintext_dist,
                    "distribution")
        p_k = _load(probdist.load_distribution, args.key_dist, "distribution")
        report = attacks.ciphertext_only_attack(c, p_x, p_k)
        doc = {"command": "attack", "mode": "ciphertext-only",
               "ciphertext": args.ciphertext,
               "plaintext_dist": args.plaintext_dist,
               "key_dist": args.key_dist}
        doc.update(_attack_report_fields(report))
        return doc
    if args.mode == "kpa":
        if args.key_dist is None or args.known_prefix is None:
            raise ValueError("kpa mode needs --key-dist and --known-prefix")
        p_k = _load(probdist.load_distribution, args.key_dist, "distribution")
        prefix = BitString.from_str(args.known_prefix)
        report = attacks.kpa_next_bits(p_k, prefix)
        doc = {"command": "attack", "mode": "kpa",
               "key_dist": args.key_dist, "known_prefix": args.known_prefix,
               "remainder_bits": p_k.outcome_bits - len(prefix)}
        doc.update(_attack_report_fields(report))
        return doc
    # hash mode
    if args.key is None or args.seed is None or args.out_len is None:
        raise ValueError("hash mode needs --key, --seed and --out-len")
    k = BitString.from_str(args.key)
    seed = BitString.from_str(args.seed)
    out = attacks.toeplitz_hash(k, seed, args.out_len)
    return {"command": "attack", "mode": "hash", "key": args.key,
            "seed": args.seed, "out_len": args.out_len, "output": str(out)}


def _cmd_rngtest(args) -> dict:
    if args.model == "bernoulli":
        model = rngtest.BernoulliSource(bias=args.bias)
        model_desc = {"model": "bernoulli", "bias": args.bias}
    else:
        transition = probdist.ConditionalChannel(
            1, 1, [[1.0 - args.p01, args.p01], [1.0 - args.p11, args.p11]])
        initial = probdist.Distribution(1, [1.0 - args.p_init1, args.p_init1])
        model = rngtest.MarkovSource(transition=transition, initial=initial)
        model_desc = {"model": "markov", "p01": args.p01, "p11": args.p11,
                      "p_init1": args.p_init1}
    sample = rngtest.sample_blocks(model, args.block_len, args.count,
                                   args.seed)
    report = rngtest.uniformity_failure_report(sample)
    doc = {"command": "rngtest", **model_desc,
           "block_len": args.block_len, "count": args.count,
           "seed": args.seed,
           "model_delta": rngtest.model_distance_to_uniform(
               model, args.block_len),
           "empirical_delta": report.empirical_delta,
           "exactly_uniform": report.exactly_uniform}
    doc.update(_prob_fields("independent_failure",
                            report.independent_failure))
    return doc


def _cmd_report(args) -> dict:
    """Recompute the reference worked examples in one run."""
    doc = {"command": "report"}

    eps_bar, l = 1e-6, 10**4
    doc["headline_eps_bar"] = eps_bar
    doc["headline_key_len"] = l
    doc.update(_prob_fields("yuen_bound",
                            bounds.yuen_upper_bound(eps_bar, l)))
    markov = bounds.markov_individual_bound(eps_bar, l)
    doc.update(_prob_fields("markov_bound", markov))
    leak = bounds.leakage_profile(l, markov.value)
    doc["leak_interval_f"] = leak.f
    doc["leaked_bits"] = leak.leaked_bits
    doc.update(_prob_fields("required_epsilon", bounds.required_epsilon(l)))

    eff = bounds.pipeline_efficiency(50e9, 300e3)
    doc["pipeline_raw_bps"] = 50e9
    doc["pipeline_key_bps"] = 300e3
    doc["pipeline_efficiency"] = eff.ratio

    spike = probdist.Distribution.spike(4, 0.1, BitString.from_str("1010"))
    contra = coupling.contradiction_report(spike)
    doc["contradiction_spike_bits"] = 4
    doc["contradiction_spike_eps"] = 0.1
    doc["contradiction_delta"] = contra.delta
    doc["contradiction_maximal_mismatch"] = contra.maximal_mismatch
    doc["contradiction_independent_failure"] = contra.independent_failure

    bsc = probdist.ConditionalChannel.binary_symmetric(0.1)
    gap = coupling.copy_vs_channel_gap(probdist.Distribution.uniform(1), bsc)
    doc["copy_channel_flip"] = 0.1
    doc["copy_channel_delta_joint"] = gap.delta_joint
    doc["copy_channel_mismatch"] = gap.mismatch

    for n in (10**7, 10**4):
        try:
            sol = bounds.epsilon_for_security_rate(
                1e-14, bounds.default_rate_params(n))
            doc[f"rate_n{n}"] = sol.rate
            doc[f"rate_n{n}_eps_bar"] = sol.eps_bar
        except bounds.NoSolutionError as exc:
            doc[f"rate_n{n}"] = f"no-solution ({exc})"

    key_law = probdist.Distribution.spike(12, 2.0 ** -4,
                                          BitString.from_str("101011001110"))
    kpa = attacks.kpa_next_bits(key_law, BitString.from_str("1010"))
    doc["kpa_known_bits"] = 4
    doc["kpa_map_guess"] = str(kpa.map_guess)
    doc["kpa_posterior"] = kpa.map_posterior

    model = rngtest.BernoulliSource(bias=1e-4)
    sample = rngtest.sample_blocks(model, 8, 10**5, seed=1)
    unif = rngtest.uniformity_failure_report(sample)
    doc["rng_bias"] = 1e-4
    doc["rng_model_delta_1bit"] = rngtest.model_distance_to_uniform(model, 1)
    doc["rng_empirical_delta"] = unif.empirical_delta
    doc["rng_exactly_uniform"] = unif.exactly_uniform
    return doc


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keysec",
        description="Key-uniformity security calculators and attack "
                    "demonstrators")
    parser.add_argument("--format", choices=("text", "machine"),
                        default="text", help="report format")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("bounds", help="guessing-probability bounds")
    p.add_argument("--eps-bar", type=float, required=True)
    p.add_argument("--key-len", type=int, required=True)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("rate", help="security-rate trade-off solver")
    p.add_argument("--s-target", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, default=bounds.DEFAULT_QBER)
    p.add_argument("--mu", type=float, default=bounds.DEFAULT_MU)
    p.add_argument("--leak-ec", type=float, default=None)
    p.add_argument("--p-fail", type=float, default=bounds.DEFAULT_P_FAIL)
    p.add_argument("--eps-cor", type=float, default=bounds.DEFAULT_EPS_COR)
    p.set_defaults(handler=_cmd_rate)

    p = sub.add_parser("coupling", help="distances and couplings")
    p.add_argument("--p", required=True, help="distribution file")
    p.add_argument("--q", default=None, help="distribution file")
    p.add_argument("--contradiction", action="store_true",
                   help="distance vs maximal vs independent comparison")
    p.set_defaults(handler=_cmd_coupling)

    p = sub.add_parser("detect", help="quantum state discrimination")
    p.add_argument("--rho", required=True, help="matrix file")
    p.add_argument("--sigma", required=True, help="matrix file")
    p.add_argument("--prior1", type=float, default=0.5)
    p.add_argument("--povm", default=None, help="POVM file")
    p.set_defaults(handler=_cmd_detect)

    p = sub.add_parser("attack", help="one-time-pad attacks")
    p.add_argument("--mode", choices=("ciphertext-only", "kpa", "hash"),
                   required=True)
    p.add_argument("--ciphertext", default=None)
    p.add_argument("--plaintext-dist", default=None)
    p.add_argument("--key-dist", default=None)
    p.add_argument("--known-prefix", default=None)
    p.add_argument("--key", default=None)
    p.add_argument("--seed", default=None)
    p.add_argument("--out-len", type=int, default=None)
    p.set_defaults(handler=_cmd_attack)

    p = sub.add_parser("rngtest", help="uniformity-failure experiment")
    p.add_argument("--model", choices=("bernoulli", "markov"),
                   default="bernoulli")
    p.add_argument("--bias", type=float, default=0.0)
    p.add_argument("--p01", type=float, default=0.5,
                   help="markov: P(next=1 | current=0)")
    p.add_argument("--p11", type=float, default=0.5,
                   help="markov: P(next=1 | current=1)")
    p.add_argument("--p-init1", type=float, default=0.5)
    p.add_argument("--block-len", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_rngtest)

    p = sub.add_parser("report", help="recompute all reference examples")
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args.handler(args), args.format)
    except bounds.NoSolutionError as exc:
        print(f"no-solution: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
