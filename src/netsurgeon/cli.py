"""Command-line front end.

Subcommands: centrality, intervene, key-group, key-bridge, link-value,
walks, extension, reproduce. Exit codes: 0 success, 1 bad input, 2 a
violated internal identity. JSON output prints floats at 6 significant
digits with fixed key order, so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

import numpy as np

from . import extensions, reference
from .bridge import link_value_existing, link_value_potential, link_values, rank_bridges
from .centrality import katz_bonacich
from .graphs import (
    GameSpec,
    InputError,
    InternalCheckError,
    Network,
    NodeSet,
    certify,
    label_key,
    load_network,
)
from .intervene import (
    CharacteristicIntervention,
    StructuralIntervention,
    characteristic_effect,
    hybrid_effect,
    structural_effect,
)
from .keygroup import key_group_exhaustive, key_group_greedy
from .walks import avoidance_block, walk_matrix


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for internal
    # failures, so surface usage problems as InputError -> exit 1 instead.
    def error(self, message):
        raise InputError(message)


# The JSON writer: the bytes of json.dump(payload, indent=2) with every float
# rounded to 6 significant digits first, built as one string; keys must be
# strings. Lists of scalars are formatted a column at a time and lists of
# same-shaped records through one %-template, so the cost per printed number
# is a few C calls.

_SCALARS = {str, float, int, bool, type(None)}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class _Escaped(dict):
    """JSON text of each distinct string, escaped once per document."""

    def __missing__(self, s):
        text = self[s] = json.encoder.encode_basestring_ascii(s)
        return text


def _floats(values) -> list[str]:
    texts = list(map(float.__repr__, map(float, map("{:.6g}".format, values))))
    if "nan" in texts or "inf" in texts or "-inf" in texts:
        texts = [_NONFINITE.get(t, t) for t in texts]
    return texts


def _scalar(v, esc: _Escaped) -> str:
    if isinstance(v, str):
        return esc[v]
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        return _floats((v,))[0]
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _scalars(values, kinds: set, esc: _Escaped) -> list[str]:
    if kinds == {float}:
        return _floats(values)
    if kinds == {str}:
        return [esc[s] for s in values]
    return [_scalar(v, esc) for v in values]


def _records(rows: list, indent: str, esc: _Escaped) -> list[str]:
    """Texts of dicts at indent; one template when all share keys and hold scalars."""
    keys = list(rows[0])
    if not keys or any(map(keys.__ne__, map(list, rows))):
        return [_dict(row, indent, esc) for row in rows]
    columns = [[row[k] for row in rows] for k in keys]
    kinds = [set(map(type, col)) for col in columns]
    if not all(kind <= _SCALARS for kind in kinds):
        return [_dict(row, indent, esc) for row in rows]
    columns = [_scalars(col, kind, esc) for col, kind in zip(columns, kinds)]
    inner = indent + "  "
    fields = ",\n".join(f"{inner}{esc[k].replace('%', '%%')}: %s" for k in keys)
    template = "{\n" + fields + "\n" + indent + "}"
    return [template % texts for texts in zip(*columns)]


def _list(items, indent: str, esc: _Escaped) -> str:
    if not items:
        return "[]"
    inner = indent + "  "
    kinds = set(map(type, items))
    if kinds <= _SCALARS:
        texts = _scalars(items, kinds, esc)
    elif kinds == {dict}:
        texts = _records(items, inner, esc)
    else:
        texts = [_value(v, inner, esc) for v in items]
    return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + indent + "]"


def _dict(obj: dict, indent: str, esc: _Escaped) -> str:
    if not obj:
        return "{}"
    inner = indent + "  "
    texts = [f"{esc[k]}: {_value(v, inner, esc)}" for k, v in obj.items()]
    return "{\n" + inner + (",\n" + inner).join(texts) + "\n" + indent + "}"


def _value(obj, indent: str, esc: _Escaped) -> str:
    if isinstance(obj, (list, tuple)):
        return _list(obj, indent, esc)
    if isinstance(obj, dict):
        return _dict(obj, indent, esc)
    return _scalar(obj, esc)


def _emit_json(payload, stream) -> None:
    stream.write(_value(payload, "", _Escaped()) + "\n")


def _emit_csv(header, rows, stream) -> None:
    writer = csv.writer(stream)
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.6g}" if isinstance(v, float) else v for v in row])


def _load_theta(arg: str | None, net: Network):
    """A theta flag is either the literal "ones" or a file of "label value" lines."""
    if arg is None or arg == "ones":
        return None
    seen: dict[str, float] = {}
    try:
        with open(arg, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"--theta: cannot read {arg!r}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"--theta: line {lineno}: expected 'label value'")
        lab, val = parts
        if lab in seen:
            raise InputError(f"--theta: line {lineno}: duplicate label {lab!r}")
        try:
            seen[lab] = float(val)
        except ValueError:
            raise InputError(f"--theta: line {lineno}: bad number {val!r}") from None
        if not np.isfinite(seen[lab]):
            raise InputError(f"--theta: line {lineno}: non-finite number {val!r}")
    missing = [lab for lab in net.labels if lab not in seen]
    extra = [lab for lab in seen if lab not in net.index]
    if missing or extra:
        raise InputError(
            f"--theta: labels do not match the graph (missing {missing}, unknown {extra})"
        )
    return np.array([seen[lab] for lab in net.labels])


def _parse_pair(raw: str, flag: str) -> tuple[str, str]:
    parts = raw.split(",")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise InputError(f"{flag}: expected 'u,v', got {raw!r}")
    return parts[0], parts[1]


def _spec_from(args) -> GameSpec:
    net = load_network(args.graph)
    theta = _load_theta(getattr(args, "theta", None), net)
    return certify(net, args.delta, theta)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    top = _Parser(prog="netsurgeon", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, theta=True):
        p.add_argument("--graph", required=True, help="edge-list file")
        p.add_argument("--delta", required=True, type=float, help="synergy weight")
        if theta:
            p.add_argument("--theta", default="ones", help="'ones' or a 'label value' file")

    p = sub.add_parser("centrality", help="equilibrium actions and self-loop counts")
    common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("intervene", help="effect of changing links and characteristics")
    common(p)
    p.add_argument("--add", action="append", default=[], metavar="U,V", help="create a link")
    p.add_argument("--remove", action="append", default=[], metavar="U,V", help="delete a link")
    p.add_argument(
        "--dtheta", action="append", default=[], metavar="LABEL=VALUE",
        help="shift one node's characteristic",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("key-group", help="most valuable removal set")
    common(p)
    p.add_argument("--k", required=True, type=int, help="group size")
    p.add_argument("--mode", choices=("exhaustive", "greedy"), default="exhaustive")
    p.add_argument("--top", type=int, default=1, help="how many groups to report")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("key-bridge", help="best link between two separate networks")
    p.add_argument("--graph1", required=True, help="edge-list file, first component")
    p.add_argument("--graph2", required=True, help="edge-list file, second component")
    p.add_argument("--delta", required=True, type=float)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("link-value", help="value of single links inside one network")
    common(p, theta=False)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pair", metavar="U,V", help="score one pair, absent or present")
    mode.add_argument("--all-potential", action="store_true", help="rank all absent pairs")
    mode.add_argument("--all-existing", action="store_true", help="rank all present links")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("walks", help="discounted walk counts avoiding a node set")
    common(p, theta=False)
    p.add_argument("--exclude", metavar="LABELS", help="comma-separated")
    p.add_argument("--from", dest="from_", metavar="LABELS", help="comma-separated sources")
    p.add_argument("--to", metavar="LABELS", help="comma-separated targets")
    p.add_argument("--format", choices=("json",), default="json")

    p = sub.add_parser("extension", help="equilibria of the variant payoff models")
    p.add_argument("--model", choices=("multi", "congestion", "global"), required=True)
    common(p)
    p.add_argument("--beta", type=float, help="cross-activity cost (multi)")
    p.add_argument("--gamma", type=float, help="distance-two congestion (congestion)")
    p.add_argument("--phi", type=float, help="global substitution weight (global)")
    p.add_argument("--theta-b", default=None, help="second activity characteristics (multi)")

    p = sub.add_parser("reproduce", help="recompute a reference table cell by cell")
    p.add_argument("--table", required=True, type=int, choices=reference.TABLE_IDS)
    p.add_argument("--format", choices=("text", "json"), default="text")

    return top


def _cmd_centrality(args, out) -> int:
    report = katz_bonacich(_spec_from(args))
    if args.format == "csv":
        rows = [
            (lab, float(report.b[i]), float(report.self_loops[i]))
            for i, lab in enumerate(report.labels)
        ]
        rows.append(("aggregate", float(report.aggregate), ""))
        _emit_csv(("label", "b", "self_loop"), rows, out)
    else:
        _emit_json(report.to_json_dict(), out)
    return 0


def _cmd_intervene(args, out) -> int:
    spec = _spec_from(args)
    net = spec.network
    adds = [_parse_pair(p, "--add") for p in args.add]
    removes = [_parse_pair(p, "--remove") for p in args.remove]
    shifts: dict[str, float] = {}
    for raw in args.dtheta:
        if "=" not in raw:
            raise InputError(f"--dtheta: expected LABEL=VALUE, got {raw!r}")
        lab, val = raw.split("=", 1)
        try:
            shifts[lab] = shifts.get(lab, 0.0) + float(val)
        except ValueError:
            raise InputError(f"--dtheta: bad number {val!r}") from None
    structural = StructuralIntervention.from_label_pairs(net, add=adds, remove=removes)
    characteristic = CharacteristicIntervention.from_pairs(net, shifts)
    if structural.is_empty() and not shifts:
        raise InputError("nothing to do: give --add, --remove, or --dtheta")
    if structural.is_empty():
        effect = characteristic_effect(spec, characteristic)
    elif not shifts:
        effect = structural_effect(spec, structural)
    else:
        effect = hybrid_effect(spec, structural, characteristic)
    if args.format == "csv":
        rows = [
            (
                lab,
                float(effect.delta_x[i]),
                float(effect.equivalent_delta_theta[i]),
                float(effect.post_b[i]),
            )
            for i, lab in enumerate(effect.labels)
        ]
        rows.append(("aggregate_change", float(effect.delta_aggregate), "", ""))
        _emit_csv(("label", "delta_x", "equivalent_delta_theta", "post_b"), rows, out)
    else:
        _emit_json(effect.to_json_dict(), out)
    return 0


def _cmd_key_group(args, out) -> int:
    spec = _spec_from(args)
    if args.top < 1:
        raise InputError(f"--top must be positive, got {args.top}")
    if args.mode == "greedy":
        results = [key_group_greedy(spec, args.k)]
    else:
        results = key_group_exhaustive(spec, args.k, top=args.top)
    payload = {
        "mode": args.mode,
        "k": args.k,
        "results": [gs.to_json_dict(spec.network) for gs in results],
    }
    if args.format == "csv":
        rows = [
            (
                rank + 1,
                " ".join(gs.group.labels(spec.network)),
                gs.intercentrality,
                gs.direct_effect,
                gs.indirect_effect,
            )
            for rank, gs in enumerate(results)
        ]
        _emit_csv(
            ("rank", "group", "intercentrality", "direct_effect", "indirect_effect"), rows, out
        )
    else:
        _emit_json(payload, out)
    return 0


def _cmd_key_bridge(args, out) -> int:
    spec1 = certify(load_network(args.graph1), args.delta)
    spec2 = certify(load_network(args.graph2), args.delta)
    ranked = rank_bridges(spec1, spec2)
    if args.format == "csv":
        rows = [(sc.i, sc.j, sc.index, sc.predicted_delta_aggregate) for sc in ranked]
        _emit_csv(("i", "j", "index", "predicted_delta_aggregate"), rows, out)
    else:
        _emit_json(
            {
                "winner": ranked[0].to_json_dict(),
                "candidates": [sc.to_json_dict() for sc in ranked],
            },
            out,
        )
    return 0


def _cmd_link_value(args, out) -> int:
    spec = _spec_from(args)
    net = spec.network
    skipped = []
    if args.pair:
        u, v = _parse_pair(args.pair, "--pair")
        present = net.adjacency[net.index_of(u), net.index_of(v)]
        values = [(link_value_existing if present else link_value_potential)(spec, u, v)]
    else:
        values, skipped = link_values(spec, "potential" if args.all_potential else "existing")
    if args.format == "csv":
        rows = [(lv.i, lv.j, lv.kind, lv.value) for lv in values]
        _emit_csv(("i", "j", "kind", "value"), rows, out)
    else:
        payload = {"values": [lv.to_json_dict() for lv in values]}
        if skipped:
            payload["skipped"] = [{"i": u, "j": v, "reason": why} for u, v, why in skipped]
        _emit_json(payload, out)
    return 0


def _parse_labels(raw: str, net: Network, flag: str) -> NodeSet:
    labels = [p for p in raw.split(",") if p]
    if not labels:
        raise InputError(f"{flag}: no labels given")
    return NodeSet.of_labels(net, labels)


def _cmd_walks(args, out) -> int:
    spec = _spec_from(args)
    net = spec.network
    if (args.from_ is None) != (args.to is None):
        raise InputError("--from and --to must be given together")
    if args.from_ is not None:
        if args.exclude is not None:
            raise InputError("--from/--to avoid their own endpoints; drop --exclude")
        a = _parse_labels(args.from_, net, "--from")
        b = _parse_labels(args.to, net, "--to")
        block = avoidance_block(spec, a, b)
        _emit_json(
            {
                "from": list(a.labels(net)),
                "to": list(b.labels(net)),
                "avoided": sorted(set(a.labels(net)) | set(b.labels(net)), key=label_key),
                "matrix": [[float(x) for x in row] for row in block],
            },
            out,
        )
        return 0
    if args.exclude is None:
        raise InputError("give --exclude, or a --from/--to pair")
    excluded = _parse_labels(args.exclude, net, "--exclude")
    wm = walk_matrix(spec, excluded)
    _emit_json(
        {
            "excluded": list(wm.excluded.labels(net)),
            "kept": list(wm.kept.labels(net)),
            "kept_kept": [[float(x) for x in row] for row in wm.kept_kept],
            "kept_excluded": [[float(x) for x in row] for row in wm.kept_excluded],
            "excluded_kept": [[float(x) for x in row] for row in wm.excluded_kept],
            "excluded_excluded": [[float(x) for x in row] for row in wm.excluded_excluded],
        },
        out,
    )
    return 0


def _cmd_extension(args, out) -> int:
    net = load_network(args.graph)
    theta = _load_theta(args.theta, net)
    if theta is None:
        theta = np.ones(net.n)
    if args.model == "multi":
        if args.beta is None:
            raise InputError("--beta is required for the multi-activity model")
        theta_b = _load_theta(args.theta_b, net)
        if theta_b is None:
            theta_b = np.ones(net.n)
        spec = extensions.certify_multi_activity(net, args.delta, args.beta, theta, theta_b)
        eq = extensions.multi_activity_equilibrium(spec)
        payload = {
            "model": "multi",
            "labels": list(net.labels),
            "activity_a": [float(x) for x in eq["activity_a"]],
            "activity_b": [float(x) for x in eq["activity_b"]],
        }
    elif args.model == "congestion":
        if args.gamma is None:
            raise InputError("--gamma is required for the congestion model")
        spec = extensions.certify_congestion(net, args.delta, args.gamma, theta)
        x = extensions.congestion_equilibrium(spec)
        payload = {
            "model": "congestion",
            "labels": list(net.labels),
            "x": [float(v) for v in x],
        }
    else:
        if args.phi is None:
            raise InputError("--phi is required for the global-substitution model")
        spec = extensions.certify_global_substitution(net, args.delta, args.phi)
        x = extensions.global_substitution_equilibrium(spec)
        payload = {
            "model": "global",
            "labels": list(net.labels),
            "x": [float(v) for v in x],
        }
    _emit_json(payload, out)
    return 0


def _cmd_reproduce(args, out) -> int:
    report = reference.reproduce(args.table)
    if args.format == "json":
        _emit_json(report.to_json_dict(), out)
    else:
        width = max(len(c.row) for c in report.cells)
        out.write(f"table {report.table}\n")
        for c in report.cells:
            status = "ok " if c.ok else "FAIL"
            out.write(
                f"  {status} {c.row:<{width}}  {c.quantity:<14} "
                f"expected {c.expected:<10.6g} got {c.actual:<12.6g} tol {c.tolerance:g}\n"
            )
        out.write(f"{'all cells pass' if report.ok else 'CELL FAILURES PRESENT'}\n")
    if not report.ok:
        raise InternalCheckError(f"table {args.table} does not reproduce")
    return 0


_DISPATCH = {
    "centrality": _cmd_centrality,
    "intervene": _cmd_intervene,
    "key-group": _cmd_key_group,
    "key-bridge": _cmd_key_bridge,
    "link-value": _cmd_link_value,
    "walks": _cmd_walks,
    "extension": _cmd_extension,
    "reproduce": _cmd_reproduce,
}


def run(argv=None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        args = build_parser().parse_args(argv)
        return _DISPATCH[args.command](args, out)
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=err)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=err)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
