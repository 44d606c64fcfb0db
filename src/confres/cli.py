"""Command-line surface: cluster, sweep, eval, experiment.

Exit codes: 0 success, 2 usage/input error, 1 internal failure.  Every
output JSON embeds the tool version, the kernel backend that ran, the
fully resolved parameters, the seed, and a SHA-256 hash of each input file
so runs are reproducible.
"""

import argparse
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__, kernels
from .cognition import (HierarchySpec, novelty_spec, run_evolution_experiment,
                        run_hierarchy_experiment, run_novelty_experiment)
from .errors import InputError
from .evaluation import (accuracy, ari, contingency, nmi, rms_align, v_measure)
from .graph import (build_knn_graph, derive_affinity, is_integer_label,
                    load_labels_csv, load_points_csv, read_text)
from .mosaic import layout, render_svg
from .optimizer import OptimizeOptions, optimize
from .resolution import find_configurations

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _metadata(params: dict, inputs: dict) -> dict:
    return {
        "version": __version__,
        "backend": kernels.BACKEND,
        "params": params,
        "seed": params.get("seed"),
        "input_hashes": {name: _sha256(path) for name, path in inputs.items()},
    }


def _json_key(key) -> str:
    """A dict key as json.dumps writes it; every payload key is a string."""
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return json.dumps(key)


def _encode(value, pad, parts) -> None:
    """Append to `parts` the text json.dumps(value, indent=2,
    sort_keys=True) gives `value` nested where `pad` (a newline and the
    indentation) starts its lines.

    With `indent`, json.dumps runs its pure-Python encoder on every item;
    here a list of exact ints is one str.join and each other scalar one
    call of the C encoder.
    """
    inner = pad + "  "
    if isinstance(value, dict) and value:
        sep = "{" + inner
        for key, item in sorted(value.items()):
            parts.append(sep + _json_key(key) + ": ")
            _encode(item, inner, parts)
            sep = "," + inner
        parts.append(pad + "}")
    elif isinstance(value, (list, tuple)) and value:
        if {int}.issuperset(map(type, value)):  # not bool, not subclasses
            parts.append("[" + inner + ("," + inner).join(map(str, value))
                         + pad + "]")
            return
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _encode(item, inner, parts)
            sep = "," + inner
        parts.append(pad + "]")
    else:  # a scalar, {} or []
        parts.append(json.dumps(value))


def _write_json(path, payload: dict) -> None:
    """Write json.dumps(payload, indent=2, sort_keys=True) + "\n"."""
    parts = []
    _encode(payload, "\n", parts)
    parts.append("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(parts))


def _load_config_file(path) -> dict:
    """Flat key = value lines; blank lines and # comments ignored.  Maps
    each key to its value and the number of the line that last set it."""
    values = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = (val.strip(), lineno)
    return values


def _apply_config_file(args, argv):
    """`args` with the `--config` file's values for the flags that the
    command line does not give.

    Each file key must name an option of the command, and each value pass
    the same type and `choices` checks as on the command line.  The
    command's own arguments are then parsed again by its subparser into a
    namespace that holds the checked file values: a subparser sets a
    default only where an attribute is missing, so every flag given, in
    any spelling, wins over the file.
    """
    command = args._commands[args.command]
    actions = {a.dest: a for a in command._actions
               if a.dest not in ("help", "func")}
    values = {}
    for key, (raw, lineno) in _load_config_file(args.config).items():
        action = actions.get(key)
        if action is None:
            raise InputError(f"{args.config}:{lineno}: {key} names no option "
                             f"of {args.command}")
        caster = type(action.default) if action.default is not None else str
        try:
            value = caster(raw)
        except ValueError as exc:
            raise InputError(f"{args.config}: {key} = {raw!r} is not "
                             f"a valid {caster.__name__}") from exc
        if action.choices is not None and value not in action.choices:
            raise InputError(f"{args.config}: {key} = {raw!r} is not one of "
                             f"{', '.join(map(str, action.choices))}")
        values[key] = value
    # argv[0] is the command: the top-level parser takes nothing else
    return command.parse_args(argv[1:], argparse.Namespace(**values))


def _check_files_exist(args, *attrs) -> None:
    for attr in attrs:
        path = getattr(args, attr, None)
        if path is None:
            continue
        if not os.path.exists(path):
            raise InputError(f"{attr} file not found: {path}")
        if os.path.isdir(path):
            raise InputError(f"{attr} is a directory: {path}")


def _points_to_affinity(points, k: int):
    neighbors = build_knn_graph(points, k=k)
    return derive_affinity(neighbors)


def cmd_cluster(args) -> int:
    points = load_points_csv(args.input)
    graph = _points_to_affinity(points, args.k)
    labels, energy = optimize(graph, args.gamma, OptimizeOptions(seed=args.seed))
    params = {"command": "cluster", "input": args.input, "k": args.k,
              "gamma": args.gamma, "seed": args.seed}
    _write_json(args.out, {
        "labels": labels.tolist(),
        "energy": {"gamma": energy.gamma, "h_a": energy.h_a,
                   "h_r": energy.h_r, "total": energy.total},
        "metadata": _metadata(params, {"input": args.input}),
    })
    return EXIT_OK


def cmd_sweep(args) -> int:
    points = load_points_csv(args.input)
    graph = _points_to_affinity(points, args.k)
    configs = find_configurations(graph, args.gamma_max,
                                  OptimizeOptions(seed=args.seed))
    params = {"command": "sweep", "input": args.input, "k": args.k,
              "gamma_max": args.gamma_max, "seed": args.seed}
    payload = configs.to_dict()
    payload["metadata"] = _metadata(params, {"input": args.input})
    _write_json(args.out, payload)
    if args.landscape:
        configs.landscape_csv(args.landscape)
    return EXIT_OK


def _load_partition_json(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSON and UTF-8 decoding errors
            raise InputError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "labels" not in data:
        raise InputError(f"{path}: no 'labels' key")
    labels = data["labels"]
    if not isinstance(labels, list):
        raise InputError(f"{path}: 'labels' must be a list")
    for value in labels:
        # bool is a subclass of int but not a label
        if type(value) not in (int, float) or not is_integer_label(value):
            raise InputError(f"{path}: label {value!r} is not an integer")
    return np.array([int(x) for x in labels], dtype=np.int64)


def cmd_eval(args) -> int:
    pred = _load_partition_json(args.pred)
    truth = load_labels_csv(args.truth)
    if len(pred) != len(truth):
        raise InputError("prediction and truth lengths differ")
    table = contingency(truth, pred)
    # rms_align imports scipy.optimize: only --align rms pays for it
    alignment = rms_align(table) if args.align == "rms" else None
    metrics = {
        "ari": ari(table),
        "nmi": nmi(table),
        "v": v_measure(table),
        "accuracy": accuracy(alignment) if alignment is not None else None,
        "auc": None,
    }
    params = {"command": "eval", "pred": args.pred, "truth": args.truth,
              "align": args.align, "seed": None}
    payload = dict(metrics)
    payload["metadata"] = _metadata(
        params, {"pred": args.pred, "truth": args.truth})
    if args.align == "rms":
        payload["alignment"] = {
            "row_order": alignment.row_order.tolist(),
            "col_order": alignment.col_order.tolist(),
            "splits": [[int(i), list(map(int, cols))]
                       for i, cols in alignment.splits],
            "merges": [[int(i), list(map(int, cols))]
                       for i, cols in alignment.merges],
        }
    _write_json(args.out, payload)
    if args.mosaic:
        source = alignment.aligned if args.align == "rms" else table
        with open(args.mosaic, "w", encoding="utf-8") as fh:
            fh.write(render_svg(layout(source)))
    return EXIT_OK


def cmd_experiment(args) -> int:
    params = {"command": "experiment", "kind": args.kind, "seed": args.seed}
    if args.kind != "hierarchy":  # the hierarchy experiment has no fraction
        params["fraction"] = args.fraction if args.kind == "novelty" else None
    if args.kind == "hierarchy":
        report = run_hierarchy_experiment(HierarchySpec(seed=args.seed))
    elif args.kind == "novelty":
        report = run_novelty_experiment(novelty_spec(args.seed),
                                        fraction=args.fraction)
    else:  # evolve: argparse restricts kind to these three
        trace = run_evolution_experiment(seed=args.seed)
        report = {
            "timesteps": trace.timesteps,
            "inverse_ari": {m: list(map(float, s))
                            for m, s in trace.inverse_ari_series.items()},
            "events": [[int(t), kind, list(map(int, ids))]
                       for t, kind, ids in trace.events],
        }
    payload = {"report": report, "metadata": _metadata(params, {})}
    _write_json(args.out, payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confres",
        description="finite-resolution attraction-repulsion clustering")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.set_defaults(_commands=sub.choices)  # command -> its subparser

    def common(p):
        p.add_argument("--config", default=None,
                       help="flat key = value file supplying flag defaults")

    p = sub.add_parser("cluster", help="cluster points at a fixed resolution")
    p.add_argument("--input", required=True, help="points CSV")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="partition JSON")
    common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("sweep", help="discover all plateaus up to gamma-max")
    p.add_argument("--input", required=True, help="points CSV")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--gamma-max", dest="gamma_max", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="configuration-set JSON")
    p.add_argument("--landscape", default=None, help="optional landscape CSV")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="score a partition against truth labels")
    p.add_argument("--pred", required=True, help="partition JSON")
    p.add_argument("--truth", required=True, help="labels CSV")
    p.add_argument("--align", choices=("rms", "none"), default="rms")
    p.add_argument("--mosaic", default=None, help="optional mosaic SVG")
    p.add_argument("--out", required=True, help="metrics JSON")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="run a built-in experiment")
    p.add_argument("kind", choices=("hierarchy", "novelty", "evolve"))
    p.add_argument("--fraction", type=float, default=0.05,
                   help="outlier fraction for the novelty experiment, "
                        "in (0, 1]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="report JSON")
    common(p)
    p.set_defaults(func=cmd_experiment)
    return parser


# built on the first call of `main` and reused: parsing leaves the
# parser as it was, and each call gets a fresh Namespace
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        _check_files_exist(args, "config")
        if args.config is not None:
            args = _apply_config_file(args, argv)
        # required on the command line: a config file cannot supply them
        _check_files_exist(args, "input", "pred", "truth")
        # found before the work, not when the result is written
        for attr in ("out", "landscape", "mosaic"):
            path = getattr(args, attr, None)
            folder = os.path.dirname(path) if path is not None else ""
            if folder and not os.path.isdir(folder):
                raise InputError(f"{attr} directory not found: {folder}")
            if path is not None and os.path.isdir(path):
                raise InputError(f"{attr} is a directory: {path}")
        return args.func(args)
    except InputError as exc:
        print(f"confres: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"confres: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
