"""Argument parsing and dispatch for the polmod command."""

import argparse
import json
import sys
from functools import lru_cache

from ..errors import ConsistencyError, PolmodError, UsageError
from . import SELECTOR_FILES, runner


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_module_flags(sub):
    sub.add_argument(
        "--gen",
        action="append",
        default=[],
        metavar="EXPR",
        help="generator expression or family keyword; repeatable",
    )
    sub.add_argument("--n", type=int, required=True, help="number of columns")
    sub.add_argument(
        "--ell", type=int, default=1, help="number of variable rows (default 1)"
    )
    _add_output_flags(sub)
    sub.add_argument(
        "--full-mu",
        action="store_true",
        help="grow ell to the top generator degree so no q-label is truncated",
    )


def _add_output_flags(sub):
    sub.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )


@lru_cache(maxsize=None)
def make_parser():
    """The command's parser, built once per process: main() may run many
    times in one process (tests, the benchmark), and each parser is a web of
    reference cycles that only a full garbage collection frees."""
    parser = _ArgumentParser(
        prog="polmod",
        description=(
            "Exact computation with polarization modules: graded bases, "
            "Hilbert series, Frobenius characteristics, degree-2/3 "
            "classification, and fixture verification."
        ),
    )
    sub = parser.add_subparsers(dest="mode", metavar="subcommand")

    sp = sub.add_parser(
        "frobenius",
        help="bigraded Frobenius characteristic, Hilbert series, dimension",
    )
    _add_module_flags(sp)

    sp = sub.add_parser("hilbert", help="Hilbert series in both bases")
    _add_module_flags(sp)

    sp = sub.add_parser("basis", help="echelon bases of every graded component")
    _add_module_flags(sp)

    sp = sub.add_parser(
        "classify", help="degree-2/3 isomorphism class of a symmetric generator"
    )
    _add_module_flags(sp)

    sp = sub.add_parser(
        "exceptions",
        help="collapse equation in table normal form, plus point verdicts",
    )
    sp.add_argument("--n", type=int, required=True, help="number of variables")
    sp.add_argument(
        "--point",
        action="append",
        default=[],
        metavar="a,b,c",
        help="rational point to classify; repeatable",
    )
    _add_output_flags(sp)

    sp = sub.add_parser("verify", help="check bundled expected values")
    sp.add_argument(
        "--set",
        action="append",
        default=[],
        dest="sets",
        metavar="SELECTOR",
        help="fixture selector (%s, all); repeatable, default all"
        % ", ".join(sorted(SELECTOR_FILES)),
    )
    _add_output_flags(sp)

    return parser


def _validate_common(args):
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    if args.ell < 1:
        raise UsageError("--ell must be at least 1")


def _json_text(doc):
    """json.dumps(doc, indent=2, sort_keys=True), with every scalar text and
    empty container from json.dumps itself. json's indenting encoder is pure
    Python, and its nested closures leave a reference cycle behind on every
    call, which an in-process caller keeps until a full collection; this
    builds none. Like json, it joins one list of chunks once."""
    chunks = []
    _json_chunks(doc, "", chunks)
    return "".join(chunks)


def _json_chunks(value, indent, out):
    inner = indent + "  "
    if isinstance(value, dict) and value:
        sep = "{\n" + inner
        for key in sorted(value):
            text = key if isinstance(key, str) else json.dumps(key)
            out.append(sep + json.dumps(text) + ": ")
            _json_chunks(value[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)) and value:
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _json_chunks(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        out.append(json.dumps(value))


def _emit(args, doc, render):
    if args.format == "json":
        print(_json_text(doc))
    else:
        print(render())


def run(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.mode is None:
        raise UsageError("a subcommand is required (see polmod --help)")
    if args.mode in ("frobenius", "hilbert", "basis", "classify"):
        _validate_common(args)
        job = {
            "frobenius": runner.frobenius_job,
            "hilbert": runner.hilbert_job,
            "basis": runner.basis_job,
            "classify": runner.classify_job,
        }[args.mode]
        doc, render = job(args.gen, args.n, args.ell, full_mu=args.full_mu)
        _emit(args, doc, render)
        return 0
    if args.mode == "exceptions":
        doc, render = runner.exceptions_job(args.n, args.point)
        _emit(args, doc, render)
        return 0
    # verify loads the fixture machinery, which no other subcommand needs
    from . import verify

    doc, render = verify.run_verify(args.sets or ["all"])
    _emit(args, doc, render)
    return 2 if doc["failed"] else 0


def main(argv=None):
    try:
        return run(argv)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print("consistency failure: %s" % exc, file=sys.stderr)
        return 2
    except PolmodError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError:
        print(
            "error: out of memory (the module is too large for this machine)",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
