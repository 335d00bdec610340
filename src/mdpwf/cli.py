"""Command-line entry point: every library operation as a subcommand.

Exit codes: 0 success (a NO threshold answer is still success), 1 domain
errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bench as bench_mod
from . import generators as gen_mod
from .errors import LoadError, MdpwfError
from .evaluate import eval_counting, eval_positional, eval_stationary_mixed
from .model import dumps as model_dumps
from .model import load, loads, spacing_report
from .numeric import EXACT, FLOAT, NumericMode, as_fraction, format_fraction, number_for_json
from .oracle import enumerate_counting, enumerate_positional, threshold_decide_positional
from .solve import solve_discounted
from .strategies import CountingStrategy, load_strategy, counting_to_doc, positional_names
from .welfare import optimize

# Longest counting prefix `eval --exact` evaluates from a strategy file.  Its
# rationals grow by about log2(1/lam) bits a step, so time grows faster than
# kappa; at this cap the costliest pattern found on `investment` (one short run
# per step) takes about 3 s on a 2-core x86 host.  `optimize` certifies its own
# strategies uncapped.
EXACT_EVAL_MAX_KAPPA = 100_000


def _mode(args) -> NumericMode:
    return EXACT if getattr(args, "exact", False) else FLOAT


def _fmt(x, mode: NumericMode) -> str:
    if isinstance(x, Fraction):
        return format_fraction(x) if mode.is_exact else f"{float(x):.12g}"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _read_model(path, mode: NumericMode):
    if path == "-":
        return loads(sys.stdin.read(), mode)
    return load(path, mode)


def _emit(doc, args):
    if getattr(args, "json", False):
        print(json.dumps(doc, indent=2))
        return True
    return False


# -- subcommands ------------------------------------------------------------


def cmd_validate(args):
    try:
        _read_model(args.file, _mode(args))
        violations = []
    except LoadError as e:
        violations = list(e.violations)
    ok = not violations
    doc = {"ok": ok, "violations": violations}
    if not _emit(doc, args):
        if ok:
            print("ok")
        else:
            for v in violations:
                print(f"violation: {v}")
    return 0 if ok else 1


def cmd_spacing(args):
    mode = _mode(args)
    asym = _read_model(args.file, mode)
    report = spacing_report(asym, as_fraction(args.bound))
    doc = {
        "bound": number_for_json(report.bound, mode),
        "all_spaced": report.all_spaced,
        "pairs": [
            {
                "index": p.index,
                "spacing": number_for_json(p.spacing, mode),
                "reasonably_spaced": p.reasonably_spaced,
            }
            for p in report.pairs
        ],
    }
    if not _emit(doc, args):
        for p in report.pairs:
            flag = "spaced" if p.reasonably_spaced else "NOT spaced"
            print(f"pair {p.index}->{p.index + 1}: spacing {_fmt(p.spacing, mode)} ({flag})")
    return 0


def cmd_solve(args):
    mode = _mode(args)
    asym = _read_model(args.file, mode)
    if not (0 <= args.principal < asym.n_principals):
        raise MdpwfError(
            f"principal index {args.principal} out of range (model has "
            f"{asym.n_principals})"
        )
    result = solve_discounted(asym, args.principal, mode=mode)
    p = asym.principals[args.principal]
    rows = [
        (
            asym.mdp.states[s],
            result.values[s],
            asym.mdp.actions[s][result.strategy[s]],
        )
        for s in range(asym.n_states)
    ]
    doc = {
        "principal": args.principal,
        "name": p.name,
        "discount": number_for_json(p.discount, mode),
        "values": {s: number_for_json(v, mode) for s, v, _ in rows},
        "strategy": {s: a for s, _, a in rows},
    }
    if not _emit(doc, args):
        print(f"principal {args.principal} ({p.name}, discount {_fmt(p.discount, mode)})")
        width = max(5, max(len(s) for s, _, _ in rows))
        vwidth = max(5, max(len(_fmt(v, mode)) for _, v, _ in rows))
        print(f"{'state':<{width}}  {'value':>{vwidth}}  action")
        for s, v, a in rows:
            print(f"{s:<{width}}  {_fmt(v, mode):>{vwidth}}  {a}")
    if args.csv:
        bench_mod.write_csv(
            args.csv, ["state", "value", "action"], ([s, _fmt(v, mode), a] for s, v, a in rows)
        )
    return 0


def _report_doc(rep, mode):
    return {
        "per_principal": [number_for_json(x, mode) for x in rep.per_principal],
        "social_welfare": number_for_json(rep.social_welfare, mode),
        "baseline": number_for_json(rep.baseline, mode),
        "deviation_gain": number_for_json(rep.deviation_gain, mode),
    }


def cmd_optimize(args):
    mode = _mode(args)
    asym = _read_model(args.file, mode)
    result = optimize(asym, mode=mode, max_kappa=args.max_kappa)
    starts = [args.start] if args.start else list(asym.mdp.states)
    for s in starts:
        if s not in result.reports:
            raise MdpwfError(f"unknown start state {s!r}")
    strategy = counting_to_doc(asym, result.strategy)
    doc = {
        "kappa": result.kappa,
        "kappa_bound": result.kappa_bound,
        "strategy": strategy,
        "reports": {s: _report_doc(result.reports[s], mode) for s in starts},
    }
    if not _emit(doc, args):
        print(f"kappa: {result.kappa} (closed-form bound {result.kappa_bound})")
        for s in starts:
            rep = result.reports[s]
            pay = ", ".join(_fmt(x, mode) for x in rep.per_principal)
            print(
                f"from {s}: SW {_fmt(rep.social_welfare, mode)} = "
                f"baseline {_fmt(rep.baseline, mode)} + gain {_fmt(rep.deviation_gain, mode)}"
                f"  [per principal: {pay}]"
            )
        if strategy["prefix"]:
            print("prefix deviations (step, state -> action):")
            for d in strategy["prefix"]:
                print(f"  {d['step']}, {d['state']} -> {d['action']}")
        print("tail: " + " ".join(f"{t['state']}->{t['action']}" for t in strategy["tail"]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(json.dumps({**strategy, "report": doc["reports"][starts[0]]}, indent=2) + "\n")
    if args.csv:
        rows = []
        for s in starts:
            rep = result.reports[s]
            values = [*rep.per_principal, rep.social_welfare, rep.baseline, rep.deviation_gain]
            rows.append([s, *(_fmt(x, mode) for x in values), result.kappa])
        names = [p.name for p in asym.principals]
        header = ["state", *names, "social_welfare", "baseline", "deviation_gain", "kappa"]
        bench_mod.write_csv(args.csv, header, rows)
    return 0


def cmd_eval(args):
    mode = _mode(args)
    asym = _read_model(args.file, mode)
    strategy = load_strategy(args.strategy, asym)
    if isinstance(strategy, CountingStrategy):
        if mode.is_exact and strategy.kappa > EXACT_EVAL_MAX_KAPPA:
            raise MdpwfError(
                f"kappa {strategy.kappa} exceeds {EXACT_EVAL_MAX_KAPPA}, the longest prefix "
                "evaluated exactly; evaluate it without --exact"
            )
        res = eval_counting(asym, strategy, mode)
        label = "start"
    elif isinstance(strategy, list):
        res = eval_positional(asym, strategy, mode)
        label = "state"
    else:
        res = eval_stationary_mixed(asym, strategy, mode)
        label = "state"
    doc = {
        "values": {
            asym.mdp.states[s]: {
                "per_principal": [
                    number_for_json(v[s], mode) for v in res.per_principal
                ],
                "social_welfare": number_for_json(res.social_welfare[s], mode),
            }
            for s in range(asym.n_states)
        }
    }
    if not _emit(doc, args):
        for s in range(asym.n_states):
            pay = ", ".join(_fmt(v[s], mode) for v in res.per_principal)
            print(
                f"{label} {asym.mdp.states[s]}: per principal ({pay}); "
                f"SW {_fmt(res.social_welfare[s], mode)}"
            )
    return 0


def cmd_oracle(args):
    # a bundled threshold is decided exactly, so the model is read exactly too
    mode = EXACT if args.threshold == "auto" else _mode(args)
    asym = _read_model(args.file, mode)
    start = asym.state_index(args.start) if args.start else 0
    if args.threshold is not None:
        if args.threshold == "auto":
            raw = asym.metadata.get("threshold")
            if raw is None:
                raise MdpwfError("--threshold auto needs a model with bundled threshold")
            threshold = as_fraction(raw)
        else:
            threshold = as_fraction(args.threshold)
        decision = threshold_decide_positional(asym, start, threshold, mode=mode, cap=args.cap)
        doc = {
            "decision": decision.satisfied,
            "threshold": number_for_json(threshold, EXACT),
        }
        if decision.satisfied:
            doc["witness"] = positional_names(asym, decision.witness)
            if "true_sink" in asym.metadata:
                doc["assignment"] = gen_mod.decode_assignment(asym, decision.witness)
        if not _emit(doc, args):
            print("YES" if decision.satisfied else "NO")
            if decision.satisfied:
                wit = " ".join(f"{s}->{a}" for s, a in doc["witness"].items())
                print(f"witness: {wit}")
                if "assignment" in doc:
                    assign = " ".join(
                        f"{k}={'true' if v else 'false'}"
                        for k, v in doc["assignment"].items()
                    )
                    print(f"assignment: {assign}")
        return 0
    if args.mode == "positional":
        best = enumerate_positional(asym, start, mode=mode, cap=args.cap)
        strategy_doc = positional_names(asym, best.best_strategy)
        sw = best.best_social_welfare
    else:
        if args.horizon is None:
            raise MdpwfError("counting oracle needs --horizon")
        best = enumerate_counting(asym, start, args.horizon, mode=mode, cap=args.cap)
        strategy_doc = counting_to_doc(asym, best.best_strategy)
        sw = best.best_social_welfare
    doc = {
        "start": asym.mdp.states[start],
        "best_social_welfare": number_for_json(sw, mode),
        "strategy": strategy_doc,
    }
    if not _emit(doc, args):
        print(f"best social welfare from {asym.mdp.states[start]}: {_fmt(sw, mode)}")
        print(json.dumps(strategy_doc))
    return 0


def _write_model(asym, args):
    text = model_dumps(asym)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args):
    if args.generator == "builtin":
        asym = gen_mod.builtin(args.name)
    elif args.generator == "b1":
        asym = gen_mod.badly_spaced(args.n)
    elif args.generator == "random":
        discounts = args.discounts.split(",") if args.discounts else None
        if args.scheme == "list" and discounts is None:
            raise MdpwfError("--scheme list needs --discounts")
        cfg = gen_mod.RandomMdpConfig(
            num_states=args.states,
            actions_per_state=args.actions,
            num_principals=args.principals,
            discounts=discounts if args.scheme == "list" else None,
            successors=(args.succ_min, args.succ_max),
            reward_range=(as_fraction(args.reward_min), as_fraction(args.reward_max)),
            seed=args.seed,
        )
        asym = gen_mod.random_mdp(cfg)
    else:  # sat
        with open(args.cnf, "r", encoding="utf-8") as f:
            cnf = gen_mod.parse_dimacs(f.read())
        asym, _, _ = gen_mod.sat_reduction(cnf)
        if args.zero_sum:
            asym, _, _ = gen_mod.zero_sum_variant(asym)
    _write_model(asym, args)
    return 0


def cmd_bench(args):
    seeds = tuple(int(s) for s in args.seeds.split(",")) if args.seeds else (0,)
    if args.question == "rq1":
        states = _int_list(args.states) if args.states else None
        rows = bench_mod.run_rq1(states=states, seeds=seeds)
    elif args.question == "rq2":
        principals = _int_list(args.principals) if args.principals else None
        rows = bench_mod.run_rq2(principals=principals, seeds=seeds)
    else:
        ratios = [float(x) for x in args.ratios.split(",")] if args.ratios else None
        rows = bench_mod.run_rq3(ratios=ratios, seeds=seeds)
    bench_mod.rows_to_csv(rows, args.csv)
    ok = sum(1 for r in rows if r.error is None)
    print(f"{len(rows)} rows ({ok} ok) -> {args.csv}")
    return 0


def _int_list(text):
    if ":" in text:
        lo, hi, step = (int(x) for x in text.split(":"))
        return list(range(lo, hi, step))
    return [int(x) for x in text.split(",")]


def _grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise MdpwfError(f"grid spec {text!r} must be start:stop:step")
    lo, hi, step = (as_fraction(p) for p in parts)
    if step <= 0:
        raise MdpwfError(f"grid spec {text!r} needs a positive step")
    vals = []
    x = lo
    while x <= hi:
        vals.append(x)
        x += step
    return vals


def cmd_sweep(args):
    asym = _read_model(args.file, FLOAT)
    start = asym.state_index(args.start) if args.start else 0
    cells = bench_mod.sweep_discounts(
        asym,
        _grid(args.alpha),
        _grid(args.beta),
        start=start,
        max_kappa=args.max_kappa,
    )
    bench_mod.sweep_to_csv(cells, args.csv)
    ok = sum(1 for c in cells if c.status == "ok")
    print(f"{len(cells)} cells ({ok} solved) -> {args.csv}")
    return 0


# -- parser -------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="mdpwf",
        description="Welfare-optimal strategies for MDPs with per-principal discounting",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--exact", action="store_true", help="exact rational arithmetic")
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("validate", help="check model invariants")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("spacing", help="discount spacing report")
    sp.add_argument("file")
    sp.add_argument("--bound", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_spacing)

    sp = sub.add_parser("solve", help="single-principal optimal values")
    sp.add_argument("file")
    sp.add_argument("--principal", type=int, required=True)
    sp.add_argument("--csv")
    common(sp)
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("optimize", help="welfare-optimal counting strategy")
    sp.add_argument("file")
    sp.add_argument("--start")
    sp.add_argument("--max-kappa", type=int, default=10**7, dest="max_kappa")
    sp.add_argument("--out", help="write the strategy file here")
    sp.add_argument("--csv", help="write the per-state report here")
    common(sp)
    sp.set_defaults(fn=cmd_optimize)

    sp = sub.add_parser("eval", help="evaluate a strategy file")
    sp.add_argument("file")
    sp.add_argument("--strategy", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("oracle", help="brute-force search / threshold decision")
    sp.add_argument("file")
    sp.add_argument("--mode", choices=["positional", "counting"], default="positional")
    sp.add_argument("--horizon", type=int)
    sp.add_argument("--start")
    sp.add_argument("--threshold", help="number, 'p/q', or 'auto'")
    sp.add_argument("--cap", type=int, default=10**6)
    common(sp)
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("gen", help="instance generators")
    gsub = sp.add_subparsers(dest="generator", required=True)

    g = gsub.add_parser("builtin", help="worked-example models")
    g.add_argument("name", choices=list(gen_mod.BUILTIN_NAMES))
    g.add_argument("--out")
    g.set_defaults(fn=cmd_gen)

    g = gsub.add_parser("b1", help="badly spaced discount family")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--out")
    g.set_defaults(fn=cmd_gen)

    g = gsub.add_parser("random", help="seeded random instance")
    g.add_argument("--states", type=int, required=True)
    g.add_argument("--actions", type=int, default=2)
    g.add_argument("--principals", type=int, default=2)
    g.add_argument("--scheme", choices=["ap", "list"], default="ap")
    g.add_argument("--discounts", help="comma-separated, for --scheme list")
    g.add_argument("--succ-min", type=int, default=1)
    g.add_argument("--succ-max", type=int, default=3)
    g.add_argument("--reward-min", default="-10")
    g.add_argument("--reward-max", default="10")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.set_defaults(fn=cmd_gen)

    g = gsub.add_parser("sat", help="3-SAT hardness reduction")
    g.add_argument("cnf", help="DIMACS CNF file")
    g.add_argument("--zero-sum", action="store_true", dest="zero_sum")
    g.add_argument("--out")
    g.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("bench", help="scaling studies")
    sp.add_argument("question", choices=["rq1", "rq2", "rq3"])
    sp.add_argument("--seeds")
    sp.add_argument("--states")
    sp.add_argument("--principals")
    sp.add_argument("--ratios")
    sp.add_argument("--csv", required=True)
    sp.set_defaults(fn=cmd_bench)

    sp = sub.add_parser("sweep", help="discount-grid sweep")
    sp.add_argument("file")
    sp.add_argument("--alpha", required=True, help="start:stop:step")
    sp.add_argument("--beta", required=True, help="start:stop:step")
    sp.add_argument("--start")
    sp.add_argument("--max-kappa", type=int, default=10**5, dest="max_kappa")
    sp.add_argument("--csv", required=True)
    sp.set_defaults(fn=cmd_sweep)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MdpwfError, KeyError, OSError, ValueError) as e:
        # unknown state/action names surface as KeyErrors, whose str() adds quotes
        message = e.args[0] if isinstance(e, KeyError) and e.args else e
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
