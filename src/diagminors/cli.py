"""Command line front end: parse a graph, dispatch a computation, report.

Output is deterministic and byte-stable: the same invocation on the same
input always prints the same bytes. Exit codes: 0 success, 1 verification
mismatch, 2 usage or parse error, 3 precondition violation or a
computation that ran out of stack or memory.

The argument parser is built once, when the module is imported, so
`main(argv)` may be called repeatedly in one process and each call pays
only for parsing its argv and computing its answer. argparse keeps no state
between calls: each parse fills a fresh namespace. An argparse usage error
reaches an in-process caller as `SystemExit(2)`, with the usage on stderr.
"""

import argparse
import sys
from json.encoder import encode_basestring_ascii

from . import suite
from .bases import graph_basis, ugb
from .binomials import (buchberger, indispensable_monomials, initial_ideal,
                        natural_order, oriented, parse_var, format_var,
                        TermOrder, var_sort_key)
from .constructions import build_H, mobius, prism, verify_PG_equals_IH
from .encoding import (build_AG, generators_PG, heights, incidence_config,
                       verify_extreme_rays)
from .graphs import (classify, is_bipartite, parse_edge_list,
                     serialize_edge_list)
from .intmat import is_totally_unimodular, rank

OK = 0
MISMATCH = 1
USAGE = 2
PRECONDITION = 3

_HOSTS = {"tree": "prism", "unicyclic-odd": "prism",
          "unicyclic-even": "mobius band with tree prisms"}


def _json(value, indent="\n"):
    """The bytes of `json.dumps(value, indent=2)` for a verb's payload.

    With `indent` set the standard library runs its pure-Python encoder.
    This writer covers only what a payload holds (dicts with str keys,
    lists and tuples, str, int, bool and None) in about three quarters of
    the time, and raises TypeError on anything else. `indent` is the
    newline and the indentation of the current depth.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not all(isinstance(k, str) for k in value):
            raise TypeError("JSON object keys must be str")
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner)
                 for k, v in value.items()]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_json(v, inner) for v in value]
        brackets = "[]"
    else:
        raise TypeError("cannot write %s as JSON" % type(value).__name__)
    if not items:
        return brackets
    return (brackets[0] + inner + ("," + inner).join(items) + indent
            + brackets[1])


def _emit(args, lines, payload):
    if args.format == "json":
        sys.stdout.write(_json(payload) + "\n")
    else:
        for line in lines:
            sys.stdout.write(line + "\n")


def _binomial_json(plus, minus):
    """JSON form of a binomial: exponent maps under plus/minus, plus text.

    The text is the binomial's line in text output, so each verb renders a
    binomial once and reads its text line off this entry.
    """
    return {"text": "%s - %s" % (plus, minus),
            "plus": {format_var(v): e for v, e in plus.items},
            "minus": {format_var(v): e for v, e in minus.items}}


def _canonical_json(b):
    c = b.canonical()
    return _binomial_json(c.plus, c.minus)


def _cmd_analyze(args, g):
    cls = classify(g)
    lines = ["vertices: %d" % g.n, "edges: %d" % g.m]
    comps = []
    host_exists = True
    for idx, rec in enumerate(cls.per_component, 1):
        host = _HOSTS.get(rec.kind)
        if host is None:
            host_exists = False
            lines.append("component %d: multicycle -- no graph H exists"
                         % idx)
        else:
            lines.append("component %d: %s (%d vertices, %d edges, %s)"
                         " -- host: %s"
                         % (idx, rec.kind, rec.graph.n, rec.graph.m,
                            "bipartite" if rec.bipartite else "non-bipartite",
                            host))
        if rec.cycle is not None:
            lines.append("  cycle: %s"
                         % " ".join(str(v) for v in rec.cycle.vertices))
        comps.append({"index": idx, "kind": rec.kind,
                      "vertices": list(rec.graph.vertices),
                      "edges": rec.graph.m, "bipartite": rec.bipartite,
                      "cycle": (list(rec.cycle.vertices)
                                if rec.cycle is not None else None),
                      "host": host})
    lines.append("bipartite: %s" % ("yes" if cls.bipartite else "no"))
    lines.append("host graph H: %s"
                 % ("exists" if host_exists else "does not exist"))
    _emit(args, lines, {"vertices": g.n, "edges": g.m,
                        "bipartite": cls.bipartite, "components": comps,
                        "host_exists": host_exists})
    return OK


def _cmd_gens(args, g):
    gens = generators_PG(g)
    entries = [_canonical_json(b) for b in gens]
    _emit(args, [e["text"] for e in entries],
          {"count": len(gens), "generators": entries})
    return OK


def _cmd_matrix(args, g):
    cfg = build_AG(g)
    mat = cfg.matrix
    r = rank(mat)
    lines = ["columns: %s" % " ".join(format_var(v) for v in cfg.variables)]
    lines += [" ".join(str(e) for e in row) for row in mat.entries]
    lines.append("rank: %d" % r)
    payload = {"columns": [format_var(v) for v in cfg.variables],
               "rows": [list(row) for row in mat.entries], "rank": r}
    if args.tu:
        # A_G is [B | I] up to column order, so it is TU iff G is bipartite
        tu, witness = ((True, None) if is_bipartite(g)
                       else is_totally_unimodular(mat))
        lines.append("totally unimodular: %s" % ("yes" if tu else "no"))
        payload["totally_unimodular"] = tu
        payload["witness"] = None
        if witness is not None:
            lines.append("witness minor: rows %s cols %s det %d"
                         % (" ".join(str(i) for i in witness.rows),
                            " ".join(str(j) for j in witness.cols),
                            witness.det))
            payload["witness"] = {"rows": list(witness.rows),
                                  "cols": list(witness.cols),
                                  "det": witness.det}
    _emit(args, lines, payload)
    return OK


def _cmd_construct(args, g):
    if args.kind == "prism":
        built = prism(g)
    elif args.kind == "mobius":
        records = classify(g).per_component
        if (len(records) != 1 or records[0].kind != "unicyclic-even"
                or records[0].graph.n != records[0].cycle.length):
            raise ValueError("mobius needs the graph to be a single even"
                             " cycle")
        built = mobius(records[0].cycle, g)
    else:
        built = build_H(g)
    if args.format != "json":
        sys.stdout.write(serialize_edge_list(built.graph))
        return OK
    edges = []
    for u, v in built.graph.edges:
        name = built.graph.edge_names.get((u, v))
        edges.append({"u": u, "v": v,
                      "name": None if name is None else list(name),
                      "role": None if name is None else built.origin[name]})
    _emit(args, [], {"vertices": list(built.graph.vertices), "edges": edges})
    return OK


def _cmd_gb(args, g):
    gens = generators_PG(g)
    variables = sorted({v for b in gens for v in b.variables},
                       key=var_sort_key)
    try:
        order = _parse_order(args.order, variables)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE
    gb = buchberger(gens, order)
    init = initial_ideal(gb, order)
    entries = [_binomial_json(*oriented(order, b)) for b in gb]
    lines = [e["text"] for e in entries]
    lines.append("initial ideal squarefree: %s"
                 % ("yes" if init.squarefree else "no"))
    payload = {"order": {"kind": order.kind,
                         "chain": [format_var(v)
                                   for v in order.variable_ranking]},
               "count": len(gb), "basis": entries,
               "initial_squarefree": init.squarefree}
    _emit(args, lines, payload)
    return OK


def _cmd_basis(args, g):
    # `graph_basis` is a module global, looked up at each call, so that a
    # rebinding of it (a tracing wrapper, say) is the one called
    els = graph_basis(g, args.verb)
    entries = [_canonical_json(b) for b in els]
    _emit(args, [e["text"] for e in entries],
          {"count": len(els), "elements": entries})
    return OK


def _cmd_ugb(args, g):
    rep = ugb(g)
    entries = [_canonical_json(b) for b in rep.elements]
    lines = ["status: %s" % rep.status, "count: %d" % rep.count,
             "max degree: %d" % rep.max_degree]
    # the keys of BasisReport.as_dict, in its order, without its str() of
    # every element
    payload = {"status": rep.status, "count": rep.count,
               "max_degree": rep.max_degree, "elements": entries}
    if rep.status == "sandwich":
        lines.append("lower count: %d" % len(rep.lower))
        lines.append("upper count: %d" % len(rep.upper))
        payload["lower_count"] = len(rep.lower)
        payload["upper_count"] = len(rep.upper)
    _emit(args, lines + [e["text"] for e in entries], payload)
    return OK


def _cmd_verify(args, g):
    h = build_H(g)
    rep = verify_PG_equals_IH(g, h)
    hts = heights(g, h)
    rays = verify_extreme_rays(g)
    mons = indispensable_monomials(g)
    rays_ok = rays.all_ok and rays.count == 2 * g.m + g.n
    mons_ok = (len(mons) == 2 * g.m
               and not any(a is not b and a.divides(b)
                           for a in mons for b in mons))
    ok = rep.equal and rays_ok and mons_ok
    lines = ["host: %d vertices, %d edges" % (h.graph.n, h.graph.m),
             "containment: %s" % ("ok" if rep.containment_ok else "FAIL"),
             "heights: ht(P_G) = %d, ht(I_H) = %d, bipartite components = %d"
             % (hts.ht_PG, hts.ht_IH, hts.b_H),
             "equal: %s" % ("yes" if rep.equal else "no"),
             "extreme rays: %d of %d verified"
             % (rays.count, 2 * g.m + g.n),
             "indispensable monomials: %d of %d, pairwise non-dividing: %s"
             % (len(mons), 2 * g.m, "yes" if mons_ok else "no"),
             "verdict: %s" % ("pass" if ok else "fail")]
    payload = {"host": {"vertices": h.graph.n, "edges": h.graph.m},
               "containment_ok": rep.containment_ok,
               "heights": {"ht_PG": hts.ht_PG, "ht_IH": hts.ht_IH,
                           "bipartite_components": hts.b_H},
               "equal": rep.equal,
               "extreme_rays": {"verified": rays.count,
                                "expected": 2 * g.m + g.n, "ok": rays_ok},
               "indispensable": {"count": len(mons), "expected": 2 * g.m,
                                 "ok": mons_ok},
               "pass": ok}
    _emit(args, lines, payload)
    return OK if ok else MISMATCH


def _cmd_suite(args):
    results = suite.run_all()
    passed = sum(1 for r in results if r.passed)
    lines = [suite.format_line(r) for r in results]
    lines.append("%d of %d criteria passed" % (passed, len(results)))
    payload = {"criteria": [{"number": r.number, "title": r.title,
                             "passed": r.passed, "details": r.details}
                            for r in results],
               "passed": passed, "total": len(results),
               "all_passed": passed == len(results)}
    _emit(args, lines, payload)
    return OK if passed == len(results) else MISMATCH


def _parse_order(text, variables):
    """OrderSpec kind[:v1,v2,...]; the chain must rank every variable once."""
    if not text:
        return natural_order(variables)
    kind, _, chain = text.partition(":")
    if kind not in ("lex", "deglex", "degrevlex"):
        raise ValueError("unknown order kind %r" % kind)
    if not chain:
        return natural_order(variables, kind)
    ranked = [parse_var(tok) for tok in _split_chain(chain)]
    if len(set(ranked)) != len(ranked) or set(ranked) != set(variables):
        raise ValueError("order chain must list each active variable"
                         " exactly once")
    return TermOrder(kind, ranked)


def _split_chain(chain):
    """Split a comma-separated chain whose items may themselves hold commas.

    Wide names like x_10,2 span two comma-separated tokens, so try the
    two-token merge first when the second token is all digits, the only
    case where a merge can parse; it can never swallow a following
    variable, which starts with x, and a chain of narrow names never
    raises inside.
    """
    toks = chain.split(",")
    out = []
    k = 0
    while k < len(toks):
        if k + 1 < len(toks) and toks[k + 1].isdigit():
            merged = toks[k] + "," + toks[k + 1]
            try:
                parse_var(merged)
                out.append(merged)
                k += 2
                continue
            except ValueError:
                pass
        parse_var(toks[k])
        out.append(toks[k])
        k += 1
    return out


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="diagminors",
        description="Toric ideals of diagonal 2-minors of a graph: exact"
                    " generators, bases, and host-graph constructions.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, help_text, needs_input=True):
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("input",
                           help="edge-list file: one 'u v' pair per line,"
                                " # comments allowed")
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default text)")
        return p

    add("analyze", "classify components and report host-graph eligibility")
    add("gens", "print the diagonal 2-minor generators")
    p = add("matrix", "print the configuration matrix and its rank")
    p.add_argument("--tu", action="store_true",
                   help="also run the total unimodularity check")
    p = add("construct", "emit a host-graph construction as an edge list")
    p.add_argument("--kind", choices=("prism", "mobius", "witness"),
                   required=True, help="which construction to build")
    p = add("gb", "reduced Groebner basis of the generators")
    p.add_argument("--order", default="",
                   help="term order kind[:v1,v2,...] with kind"
                        " lex|deglex|degrevlex (default degrevlex, natural"
                        " chain)")
    add("circuits", "circuit binomials of the configuration")
    add("graver", "Graver basis of the configuration")
    add("ugb", "universal Groebner basis report")
    add("verify", "build the host graph and verify the ideal equality")
    add("suite", "run the built-in verification battery", needs_input=False)
    return parser


# Built once: main() may run many times in one process, and building the
# parser costs more than parsing an argv or answering a small op
_PARSER = _build_parser()

_HANDLERS = {"analyze": _cmd_analyze, "gens": _cmd_gens,
             "matrix": _cmd_matrix, "construct": _cmd_construct,
             "gb": _cmd_gb, "circuits": _cmd_basis,
             "graver": _cmd_basis, "ugb": _cmd_ugb, "verify": _cmd_verify}


def main(argv=None):
    args = _PARSER.parse_args(argv)
    if args.verb == "suite":
        return _cmd_suite(args)
    try:
        with open(args.input, "r") as fh:
            text = fh.read()
        g = parse_edge_list(text)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE
    try:
        return _HANDLERS[args.verb](args, g)
    except (ValueError, RecursionError, MemoryError) as exc:
        print("error: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
