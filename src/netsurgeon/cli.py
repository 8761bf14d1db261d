"""Command-line front end.

Subcommands: centrality, intervene, key-group, key-bridge, link-value,
walks, extension, reproduce. Exit codes: 0 success, 1 bad input, 2 a
violated internal identity. JSON output prints floats at 6 significant
digits with fixed key order, so identical inputs give identical bytes.

Only this module knows the output schema: it writes every JSON key and CSV
header, and each command builds its CSV columns and its JSON payload from
one tolist() of its result arrays, or, for a ranking, from the arrays it
holds. The library's result classes are plain data.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import operator
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
# strings. Lists of scalars are formatted a column at a time: floats by one
# %-format of the whole list, strings by json's own C escaper mapped over it,
# and where at most half of a list's values are distinct, each distinct value
# once. A list of same-shaped records, or _Columns, is laid out as one list of
# key and value texts and joined once, so a printed number or label costs a
# few C calls and, but for rare exponent forms, no Python call. A column of
# _Columns may also be held as arrays, as rankings hold theirs: a float64
# array, or _Labels; np.unique finds its distinct values, each is formatted
# once, and the texts are gathered by index. The CSV writer takes the same
# columns and formats each float column the same way, with %.6g.

_SCALARS = {str, float, int, bool, type(None)}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# A text of digits alone, after its newline, captured: split out of a
# document of float texts, each is given its ".0" by a C-level map.
_INTEGRAL = re.compile(r"(\n-?\d+)(?![^\n])")
_escaped = json.encoder.encode_basestring_ascii


@dataclass(frozen=True)
class _Columns:
    """A list of records with the same keys, given column by column: fields
    maps each key, in order, to the records' values at that key, as a list,
    a float64 array or _Labels. Every field holds one value per record; a
    shorter one is refused."""

    fields: dict

    def __post_init__(self):
        sizes = {key: len(column) for key, column in self.fields.items()}
        records = max(sizes.values(), default=0)
        for key, size in sizes.items():
            if size < records:
                raise ValueError(f"field {key!r} holds {size} values, not {records}")


def _once_each(fmt, values) -> list[str]:
    """fmt(values), with fmt called on each distinct value once where at
    most half of the values are distinct.

    Lists from symmetric networks, such as key-group results and walk
    rows, can repeat a few values many times; a list with fewer repeats is
    formatted whole, which costs less than finding them. A set
    finds the distinct values, but it holds 0.0 and -0.0 as one, so when
    values repeat the zeros are given their texts by sign afterwards. NaNs
    never compare equal, so each keeps its own text.
    """
    distinct = set(values)
    if 2 * len(distinct) > len(values):
        return fmt(values)
    keys = list(distinct)
    text = dict(zip(keys, fmt(keys)))
    texts = list(map(text.__getitem__, values))
    if 0.0 in text:
        plus, minus = fmt((0.0, -0.0))
        for i in itertools.compress(range(len(values)), map(operator.not_, values)):
            texts[i] = minus if math.copysign(1.0, values[i]) < 0 else plus
    return texts


def _distinct_texts(fmt, values: np.ndarray) -> list[str]:
    """fmt's text of each value of a float array, each distinct value
    formatted once.

    np.unique finds the distinct values and where each value sits among
    them. It holds 0.0 and -0.0 as one, so zeros are given their texts by
    sign afterwards; it holds every NaN as one, and every NaN prints alike.
    """
    distinct, at = np.unique(values, return_inverse=True)
    texts = np.array(fmt(distinct.tolist()), dtype=object)[at]
    zeros = np.flatnonzero(values == 0.0)
    if zeros.size:
        signed = np.array(fmt([0.0, -0.0]), dtype=object)
        texts[zeros] = signed[np.signbit(values[zeros]).astype(np.intp)]
    return texts.tolist()


@dataclass(frozen=True)
class _Labels:
    """A column of labels held as arrays: record t's label is names[at[t]]."""

    names: tuple[str, ...]
    at: np.ndarray

    def __len__(self) -> int:
        return len(self.at)

    def __getitem__(self, t: int) -> str:
        return self.names[self.at[t]]

    def texts(self, fmt) -> list[str]:
        """fmt's text of each record's label, each label used formatted once."""
        used, at = np.unique(self.at, return_inverse=True)
        return np.array(fmt([self.names[k] for k in used.tolist()]), dtype=object)[at].tolist()


def _json_floats(values) -> list[str]:
    """The repr of float("%.6g" % v) for each v, from one %-format of them all.

    %g and repr agree on the digits of a 6-digit decimal; they differ in
    form only for integral texts, where repr adds ".0", for decimal
    exponents 6 to 15, where repr is positional, and for subnormals, where
    repr is shorter. An integral text has no ".", so the texts are searched
    for them only when some text lacks one; a regex split puts them at the
    odd places of a list, which one map over that slice suffixes, so no
    Python code runs per match. Texts holding "e+" or "e-3", which covers
    both of the last two cases, are redone through repr one by one.
    """
    text = ("\n%.6g" * len(values)) % tuple(values)
    if text.count(".") < len(values):
        pieces = _INTEGRAL.split(text)
        pieces[1::2] = map(operator.add, pieces[1::2], itertools.repeat(".0"))
        text = "".join(pieces)
    texts = text.split("\n")
    del texts[0]
    if "e+" in text or "e-3" in text:
        texts = [float.__repr__(float(t)) if "e+" in t or "e-3" in t else t for t in texts]
    if "n" in text:  # nan, inf
        texts = [_NONFINITE.get(t, t) for t in texts]
    return texts


def _floats(values) -> list[str]:
    """The JSON text of each float in values, each distinct value formatted once."""
    return _once_each(_json_floats, values)


def _json_strings(values) -> list[str]:
    return list(map(_escaped, values))


def _scalar(v) -> str:
    if isinstance(v, str):
        return _escaped(v)
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


def _scalars(values, kinds: set) -> list[str]:
    if kinds == {float}:
        return _floats(values)
    if kinds == {str}:
        return _once_each(_json_strings, values)
    return list(map(_scalar, values))


def _bracketed(texts: list, indent: str) -> str:
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + indent + "]"


def _columns(fields: dict, indent: str) -> str:
    """The list of records whose values at key k are fields[k], at indent.

    Each field's texts are made a column at a time, scalars through
    _scalars and other values through _value at the records' inner indent,
    and laid into one list between the key texts, which is joined once.
    """
    records = len(next(iter(fields.values()), ()))
    if not records:
        return "[]"
    inner = indent + "  "
    keys = [f"{inner}  {_escaped(k)}: " for k in fields]
    # A record is its key and value texts in turn; its first key text also
    # closes the record before it, and the others follow a comma.
    heads = [f"\n{inner}}},\n{inner}{{\n{keys[0]}", *[",\n" + key for key in keys[1:]]]
    parts = [text for head in heads for text in (head, None)] * records
    stride = 2 * len(heads)
    for at, column in enumerate(fields.values()):
        if isinstance(column, np.ndarray):
            texts = _distinct_texts(_json_floats, column)
        elif isinstance(column, _Labels):
            texts = column.texts(_json_strings)
        elif (kinds := set(map(type, column))) <= _SCALARS:
            texts = _scalars(column, kinds)
        else:
            texts = [_value(v, inner + "  ") for v in column]
        parts[2 * at + 1 :: stride] = texts
    parts[0] = f"[\n{inner}{{\n{keys[0]}"
    parts.append(f"\n{inner}}}\n{indent}]")
    return "".join(parts)


def _list(items, indent: str) -> str:
    if not items:
        return "[]"
    kinds = set(map(type, items))
    if kinds <= _SCALARS:
        return _bracketed(_scalars(items, kinds), indent)
    keys = list(items[0]) if kinds == {dict} else None
    if keys and not any(map(keys.__ne__, map(list, items))):
        return _columns({k: [row[k] for row in items] for k in keys}, indent)
    inner = indent + "  "
    return _bracketed([_value(v, inner) for v in items], indent)


def _dict(obj: dict, indent: str) -> str:
    if not obj:
        return "{}"
    inner = indent + "  "
    parts = []
    for k, v in obj.items():
        parts += (",\n" + inner, _escaped(k), ": ", _value(v, inner))
    parts[0] = "{\n" + inner
    parts.append("\n" + indent + "}")
    return "".join(parts)


def _value(obj, indent: str) -> str:
    if isinstance(obj, (list, tuple)):
        return _list(obj, indent)
    if isinstance(obj, dict):
        return _dict(obj, indent)
    if isinstance(obj, _Columns):
        return _columns(obj.fields, indent)
    return _scalar(obj)


def _emit_json(payload, stream) -> None:
    stream.write(_value(payload, ""))
    stream.write("\n")


def _csv_floats(values) -> list[str]:
    texts = (("%.6g\n" * len(values)) % tuple(values)).split("\n")
    texts.pop()
    return texts


def _emit_csv(table: _Columns, stream) -> None:
    """The header, then one row per record, each float as "%.6g" text.

    A column of floats, as a list or a float64 array, is formatted once per
    distinct value, a column that mixes floats with other values cell by
    cell, _Labels by label, and any other column is written as it is. All
    rows go out in one writerows call.
    """
    columns = []
    for column in table.fields.values():
        if isinstance(column, np.ndarray):
            column = _distinct_texts(_csv_floats, column)
        elif isinstance(column, _Labels):
            column = column.texts(list)
        elif (kinds := set(map(type, column))) == {float}:
            column = _once_each(_csv_floats, column)
        elif any(issubclass(kind, float) for kind in kinds):
            column = ["%.6g" % v if isinstance(v, float) else v for v in column]
        columns.append(column)
    writer = csv.writer(stream)
    writer.writerow(table.fields)
    writer.writerows(zip(*columns))


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
        columns = {"label": [*labels, "aggregate"], "b": [*b, report.aggregate],
                   "self_loop": [*loops, ""]}
        _emit_csv(_Columns(columns), out)
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
        columns = {"label": [*labels, "aggregate_change"], "delta_x": [*delta_x, aggregate],
                   "equivalent_delta_theta": [*dtheta, ""], "post_b": [*post_b, ""]}
        _emit_csv(_Columns(columns), out)
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
        table = {"rank": list(range(1, len(results) + 1)), **fields}
        table["group"] = [" ".join(group) for group in fields["group"]]
        _emit_csv(_Columns(table), out)
    else:
        _emit_json({"mode": args.mode, "k": args.k, "results": _Columns(fields)}, out)
    return 0


def _ranked_columns(ranked: bridge.RankedPairs) -> dict:
    """A ranking's entries field by field, in their field order, as the
    arrays it holds: the rows of key-bridge and link-value."""
    if isinstance(ranked, bridge.BridgeRanking):
        scores = {"index": ranked.values, "predicted_delta_aggregate": ranked.predicted}
    else:
        kinds = _Labels((ranked.kind,), np.zeros(len(ranked), dtype=np.intp))
        scores = {"kind": kinds, "value": ranked.values}
    return {"i": _Labels(ranked.first, ranked.rows), "j": _Labels(ranked.second, ranked.cols),
            **scores}


def _cmd_key_bridge(args, out) -> int:
    spec1 = certify(load_network(args.graph1), args.delta)
    spec2 = certify(load_network(args.graph2), args.delta)
    candidates = _Columns(_ranked_columns(rank_bridges(spec1, spec2)))
    if args.format == "csv":
        _emit_csv(candidates, out)
    else:
        winner = {key: column[0] for key, column in candidates.fields.items()}
        _emit_json({"winner": winner, "candidates": candidates}, out)
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
    table = _Columns(values)
    if args.format == "csv":
        _emit_csv(table, out)
    else:
        payload = {"values": table}
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
