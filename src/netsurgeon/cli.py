"""Command-line front end.

Subcommands: centrality, intervene, key-group, key-bridge, link-value,
walks, extension, reproduce. Exit codes: 0 success, 1 bad input, 2 a
violated internal identity. JSON output prints floats at 6 significant
digits with fixed key order, so identical inputs give identical bytes.

Only this module knows the output schema: it writes every JSON key and CSV
header, and each command builds its CSV rows and its JSON payload from one
tolist() of its result arrays. The library's result classes are plain data.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import bridge, extensions, reference
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
    line_tokens,
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
# same-shaped records, or _Columns, through one %-template, so the cost per
# printed number is a few C calls.

_SCALARS = {str, float, int, bool, type(None)}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_INTEGRAL = re.compile(r"^-?\d+$", re.MULTILINE)


class _Escaped(dict):
    """JSON text of each distinct string, escaped once per document."""

    def __missing__(self, s):
        text = self[s] = json.encoder.encode_basestring_ascii(s)
        return text


@dataclass(frozen=True)
class _Columns:
    """A list of records with the same keys, given column by column: fields
    maps each key, in order, to the records' values at that key."""

    fields: dict


def _floats(values) -> list[str]:
    """The repr of float("%.6g" % v) for each v, from one %-format of them all.

    %g and repr agree on the digits of a 6-digit decimal; they differ in
    form only for integral texts, where repr adds ".0", for decimal
    exponents 6 to 15, where repr is positional, and for subnormals, where
    repr is shorter. Texts holding "e+" or "e-3", which covers both of the
    last two cases, are redone through repr one by one.
    """
    values = tuple(values)
    text = _INTEGRAL.sub(r"\g<0>.0", ("%.6g\n" * len(values)) % values)
    texts = text.split("\n")
    texts.pop()
    if "e+" in text or "e-3" in text:
        texts = [float.__repr__(float(t)) if "e+" in t or "e-3" in t else t for t in texts]
    if "n" in text:  # nan, inf
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
        return list(map(esc.__getitem__, values))
    return [_scalar(v, esc) for v in values]


def _bracketed(texts: list, indent: str) -> str:
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + indent + "]"


def _columns(fields: dict, indent: str, esc: _Escaped) -> str:
    """The list of records whose values at key k are fields[k], at indent;
    through one template when every field holds scalars."""
    inner = indent + "  "
    kinds = [set(map(type, col)) for col in fields.values()]
    if all(kind <= _SCALARS for kind in kinds):
        columns = [_scalars(col, kind, esc) for col, kind in zip(fields.values(), kinds)]
        lines = ",\n".join(f"{inner}  {esc[k].replace('%', '%%')}: %s" for k in fields)
        texts = list(map(("{\n" + lines + "\n" + inner + "}").__mod__, zip(*columns)))
    else:
        texts = [_dict(dict(zip(fields, row)), inner, esc) for row in zip(*fields.values())]
    return _bracketed(texts, indent) if texts else "[]"


def _list(items, indent: str, esc: _Escaped) -> str:
    if not items:
        return "[]"
    kinds = set(map(type, items))
    if kinds <= _SCALARS:
        return _bracketed(_scalars(items, kinds, esc), indent)
    keys = list(items[0]) if kinds == {dict} else None
    if keys and not any(map(keys.__ne__, map(list, items))):
        return _columns({k: [row[k] for row in items] for k in keys}, indent, esc)
    inner = indent + "  "
    return _bracketed([_value(v, inner, esc) for v in items], indent)


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
    if isinstance(obj, _Columns):
        return _columns(obj.fields, indent, esc)
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
    try:
        with open(arg, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"--theta: cannot read {arg!r}: {exc}") from None
    seen: dict[str, float] = {}
    for lineno, parts in enumerate(line_tokens(text), start=1):
        if not parts:
            continue
        if len(parts) != 2:
            raise InputError(f"--theta: line {lineno}: expected 'label value'")
        lab, val = parts
        if lab in seen:
            raise InputError(f"--theta: line {lineno}: duplicate label {lab!r}")
        try:
            number = float(val)
        except ValueError:
            raise InputError(f"--theta: line {lineno}: bad number {val!r}") from None
        if not math.isfinite(number):
            raise InputError(f"--theta: line {lineno}: non-finite number {val!r}")
        seen[lab] = number
    missing = [lab for lab in net.labels if lab not in seen]
    extra = [lab for lab in seen if lab not in net.index]
    if missing or extra:
        raise InputError(
            f"--theta: labels do not match the graph (missing {missing}, unknown {extra})"
        )
    return np.fromiter(map(seen.__getitem__, net.labels), dtype=float, count=net.n)


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
    p.add_argument("--top", type=int, help="how many groups to report (exhaustive; default 1)")
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
    labels, b, loops = list(report.labels), report.b.tolist(), report.self_loops.tolist()
    if args.format == "csv":
        rows = [*zip(labels, b, loops), ("aggregate", report.aggregate, "")]
        _emit_csv(("label", "b", "self_loop"), rows, out)
    else:
        payload = {"labels": labels, "b": b, "self_loops": loops, "aggregate": report.aggregate}
        _emit_json(payload, out)
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
    labels, delta_x = list(effect.labels), effect.delta_x.tolist()
    dtheta, post_b = effect.equivalent_delta_theta.tolist(), effect.post_b.tolist()
    aggregate = effect.delta_aggregate
    if args.format == "csv":
        rows = [*zip(labels, delta_x, dtheta, post_b), ("aggregate_change", aggregate, "", "")]
        _emit_csv(("label", "delta_x", "equivalent_delta_theta", "post_b"), rows, out)
    else:
        payload = {
            "labels": labels,
            "delta_x": delta_x,
            "delta_aggregate": aggregate,
            "equivalent_delta_theta": dtheta,
            "post_b": post_b,
        }
        _emit_json(payload, out)
    return 0


def _cmd_key_group(args, out) -> int:
    spec = _spec_from(args)
    top = 1 if args.top is None else args.top
    if top < 1:
        raise InputError(f"--top must be positive, got {top}")
    if args.mode == "greedy":
        if args.top is not None:
            raise InputError("--top is not read by the greedy search, which reports one group")
        results = [key_group_greedy(spec, args.k)]
    else:
        results = key_group_exhaustive(spec, args.k, top=top)
    fields = {
        "group": [list(gs.group.labels(spec.network)) for gs in results],
        "intercentrality": [gs.intercentrality for gs in results],
        "direct_effect": [gs.direct_effect for gs in results],
        "indirect_effect": [gs.indirect_effect for gs in results],
    }
    if args.format == "csv":
        records = enumerate(zip(*fields.values()), start=1)
        rows = [(rank, " ".join(group), *scores) for rank, (group, *scores) in records]
        _emit_csv(("rank", *fields), rows, out)
    else:
        _emit_json({"mode": args.mode, "k": args.k, "results": _Columns(fields)}, out)
    return 0


def _ranked_columns(ranked: bridge.RankedPairs) -> dict[str, list]:
    """A ranking's entries field by field, in their field order: each
    field's values as one list, the rows of key-bridge and link-value."""
    values = ranked.values.tolist()
    if isinstance(ranked, bridge.BridgeRanking):
        scores = {"index": values, "predicted_delta_aggregate": ranked.predicted.tolist()}
    else:
        scores = {"kind": [ranked.kind] * len(values), "value": values}
    return {
        "i": list(map(ranked.first.__getitem__, ranked.rows.tolist())),
        "j": list(map(ranked.second.__getitem__, ranked.cols.tolist())),
        **scores,
    }


def _cmd_key_bridge(args, out) -> int:
    spec1 = certify(load_network(args.graph1), args.delta)
    spec2 = certify(load_network(args.graph2), args.delta)
    candidates = _ranked_columns(rank_bridges(spec1, spec2))
    if args.format == "csv":
        _emit_csv(tuple(candidates), zip(*candidates.values()), out)
    else:
        winner = {key: column[0] for key, column in candidates.items()}
        _emit_json({"winner": winner, "candidates": _Columns(candidates)}, out)
    return 0


def _cmd_link_value(args, out) -> int:
    spec = _spec_from(args)
    net = spec.network
    skipped = []
    if args.pair:
        u, v = _parse_pair(args.pair, "--pair")
        present = net.has_link(net.index_of(u), net.index_of(v))
        lv = (link_value_existing if present else link_value_potential)(spec, u, v)
        values = {"i": [lv.i], "j": [lv.j], "kind": [lv.kind], "value": [float(lv.value)]}
    else:
        ranked, skipped = link_values(spec, "potential" if args.all_potential else "existing")
        values = _ranked_columns(ranked)
    if args.format == "csv":
        _emit_csv(tuple(values), zip(*values.values()), out)
    else:
        payload = {"values": _Columns(values)}
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
                "matrix": block.tolist(),
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
            "kept_kept": wm.kept_kept.tolist(),
            "kept_excluded": wm.kept_excluded.tolist(),
            "excluded_kept": wm.excluded_kept.tolist(),
            "excluded_excluded": wm.excluded_excluded.tolist(),
        },
        out,
    )
    return 0


# Each extension model's name and the weight flag it requires.
_MODELS = {
    "multi": ("the multi-activity model", "beta"),
    "congestion": ("the congestion model", "gamma"),
    "global": ("the global-substitution model", "phi"),
}


def _cmd_extension(args, out) -> int:
    model, weight = _MODELS[args.model]
    reads = (weight, "theta_b") if args.model == "multi" else (weight,)
    for flag in ("beta", "gamma", "phi", "theta_b"):
        if flag not in reads and getattr(args, flag) is not None:
            raise InputError(f"--{flag.replace('_', '-')} is not read by {model}")
    if args.model == "global" and args.theta != "ones":
        raise InputError(f"--theta: {model} is defined for theta = 1")
    net = load_network(args.graph)
    theta = _load_theta(args.theta, net)
    if theta is None:
        theta = np.ones(net.n)
    if getattr(args, weight) is None:
        raise InputError(f"--{weight} is required for {model}")
    payload = {"model": args.model, "labels": list(net.labels)}
    if args.model == "multi":
        theta_b = _load_theta(args.theta_b, net)
        if theta_b is None:
            theta_b = np.ones(net.n)
        spec = extensions.certify_multi_activity(net, args.delta, args.beta, theta, theta_b)
        eq = extensions.multi_activity_equilibrium(spec)
        payload.update(activity_a=eq["activity_a"].tolist(), activity_b=eq["activity_b"].tolist())
    elif args.model == "congestion":
        spec = extensions.certify_congestion(net, args.delta, args.gamma, theta)
        payload["x"] = extensions.congestion_equilibrium(spec).tolist()
    else:
        spec = extensions.certify_global_substitution(net, args.delta, args.phi)
        payload["x"] = extensions.global_substitution_equilibrium(spec).tolist()
    _emit_json(payload, out)
    return 0


def _cmd_reproduce(args, out) -> int:
    report = reference.reproduce(args.table)
    if args.format == "json":
        cells = [
            dict(table=c.table, row=c.row, quantity=c.quantity, expected=c.expected,
                 actual=float(c.actual), tolerance=c.tolerance, ok=c.ok)
            for c in report.cells
        ]
        _emit_json({"table": report.table, "ok": report.ok, "cells": cells}, out)
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
