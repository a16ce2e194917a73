"""Command-line driver: reproducible runs with serialized artifacts.

Every artifact embeds the fully resolved configuration (defaults included)
so a saved run documents itself; re-running any command with the same
configuration produces byte-identical files. The output directory is an
execution knob, not configuration: it is excluded from artifacts. Grid runs
are serial: the worker-count flag is accepted, for old scripts, and ignored.

Exit codes: 0 success (verify: within tolerance), 1 verify discrepancy out
of tolerance, 2 invalid map specification / parameters / unknown property,
3 orbit iteration failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import covering, entropy, maps, periodic, rotation, serialize
from .geometry import point_to_polygon_distance, polygon_area, polygon_diameter
from .maps import IterationError

__all__ = ["main"]

_SANDWICH_SLACK = 1e-6
_TOLERANCES = {
    "translation": 1e-9,
    "iterate-scaling": 0.1,
    "sandwich": 0.0,
}


# --- small parsers -----------------------------------------------------------

def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t]


def _pair(text: str) -> tuple[float, float]:
    vals = _floats(text)
    if len(vals) != 2:
        raise ValueError(f"expected 'x,y', got {text!r}")
    return (vals[0], vals[1])


def _int_pair(text: str) -> tuple[int, int]:
    vals = _ints(text)
    if len(vals) != 2:
        raise ValueError(f"expected 'a,b', got {text!r}")
    return (vals[0], vals[1])


def _lengths(text: str) -> list[int]:
    """Accepts '2..14' or '2,3,5'."""
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return _ints(text)


def _grid(text: str) -> tuple[int, int]:
    if "x" in text:
        r, c = text.split("x")
        return (int(r), int(c))
    n = int(text)
    return (n, n)


def _factors(text: str) -> tuple[int, int]:
    r, c = text.split("x")
    return (int(r), int(c))


def _starts(text: str) -> list[tuple[float, float]]:
    return [_pair(part) for part in text.split(";") if part]


# --- map construction --------------------------------------------------------

def _map_from_args(args) -> tuple[dict, maps.TorusLift]:
    """The map spec that the flags give, and the lift built from it."""
    if getattr(args, "map_json", None):
        text = args.map_json
        if not text.lstrip().startswith("{"):
            text = Path(text).read_text()
        spec = json.loads(text)
    else:
        name = getattr(args, "map", None)
        if not name:
            raise ValueError("no map given: use --map NAME or --map-json SPEC")
        params = {}
        for key in ("alpha", "beta", "amplitude", "radius", "center", "axis"):
            value = getattr(args, key, None)
            if value is not None:
                params[key] = list(_pair(value)) if key == "center" else value
        spec = {"map": name, "params": params}
    return spec, maps.from_map_spec(spec)


def _add_map_flags(p: argparse.ArgumentParser):
    p.add_argument("--map", help="built-in map name (see maps-list)")
    p.add_argument("--map-json", help="map spec as inline JSON or a path to a JSON file")
    p.add_argument("--alpha", type=float, help="rotation: x component")
    p.add_argument("--beta", type=float, help="rotation: y component")
    p.add_argument("--amplitude", type=float, help="shear amplitude")
    p.add_argument("--radius", type=float, help="localized shear support radius")
    p.add_argument("--center", help="localized shear center 'x,y'")
    p.add_argument("--axis", choices=["vertical", "horizontal"], help="localized shear axis")


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--out", default=".", help="artifact directory (default: current)")
    p.add_argument("--workers", type=int, help="ignored: grid runs are serial")
    p.add_argument("--config", help="JSON file whose keys override the flags")
    p.set_defaults(flag_actions=p._actions)  # filled in as the command adds flags


def _config_value(action: argparse.Action, key: str, value):
    """A --config value as its flag would give it: through the flag's type
    (a JSON number as its text, so 8.5 is no int), a string for a flag
    without one, and checked against its choices; else ValueError naming
    the key."""
    if action.nargs == 0:  # a switch such as --svg
        if not isinstance(value, bool):
            raise ValueError(f"--config key {key!r}: {value!r} is not true or false")
    elif action.type is None:
        if not isinstance(value, str):
            raise ValueError(f"--config key {key!r}: {value!r} is not a string")
    else:
        try:
            value = action.type(value if isinstance(value, str) else json.dumps(value))
        except (TypeError, ValueError):
            raise ValueError(f"--config key {key!r}: {value!r} is not a valid {action.type.__name__}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"--config key {key!r}: {value!r} is not one of {list(action.choices)}")
    return value


def _apply_config(args: argparse.Namespace):
    if getattr(args, "config", None):
        overrides = json.loads(Path(args.config).read_text())
        if not isinstance(overrides, dict):
            raise ValueError("--config file must hold a JSON object")
        actions = {a.dest: a for a in args.flag_actions if a.default is not argparse.SUPPRESS}
        for key, value in overrides.items():
            dest = key.replace("-", "_")
            if dest not in actions:
                raise ValueError(f"--config key {key!r} names no flag of this command")
            setattr(args, dest, _config_value(actions[dest], key, value))
    return args


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- subcommands -------------------------------------------------------------

def _cmd_rotset(args) -> int:
    spec, lift = _map_from_args(args)
    grid = _grid(str(args.grid))
    horizons = _ints(str(args.horizons))
    rotation.check_area_threshold(args.threshold)  # before the run, which takes seconds
    config = {
        "command": "rotset",
        "map": spec,
        "grid": list(grid),
        "horizons": horizons,
        "offset": args.offset,
        "threshold": args.threshold,
    }
    est = rotation.estimate_rotation_set(lift, grid, horizons, offset=args.offset)
    verdict = rotation.interior_nonempty(est, args.threshold)
    artifact = {"config": config, **est.to_json_dict(include_samples=False)}
    artifact["interior_nonempty"] = verdict
    artifact["hull_diameter"] = polygon_diameter(est.hull)
    out = _outdir(args)
    serialize.write_json(out / "rotset.json", artifact)
    if args.csv:
        serialize.write_csv(
            out / "rotset_samples.csv",
            ("start_x", "start_y", "avg_x", "avg_y"),
            est.samples.rows(),
        )
    if args.svg:
        serialize.write_hull_svg(
            out / "rotset.svg",
            est.hull.vertices,
            samples=est.samples.averages,
            per_horizon=[h.vertices for h in est.per_horizon_hulls[:-1]],
        )
    print(
        f"map={est.map_id} area={polygon_area(est.hull):.6g} "
        f"stability={est.stability:.3g} interior={'true' if verdict else 'false'} "
        f"(threshold {args.threshold:g})"
    )
    return 0


def _cmd_entropy(args) -> int:
    spec, lift = _map_from_args(args)
    epsilons = _floats(str(args.eps))
    lengths = _lengths(str(args.lengths))
    config = {
        "command": "entropy",
        "map": spec,
        "epsilons": epsilons,
        "lengths": lengths,
        "resolution": args.resolution,
    }
    est = entropy.estimate_entropy(lift, epsilons, lengths, args.resolution)
    out = _outdir(args)
    serialize.write_json(out / "entropy.json", {"config": config, **est.to_json_dict()})
    serialize.write_csv(out / "entropy.csv", ("epsilon", "n", "count"), est.csv_rows())
    slopes = " ".join(f"{s:.4g}" for s in est.slopes)
    print(f"map={maps.map_label(lift)} estimate={est.estimate:.6g} slopes=[{slopes}]")
    return 0


def _cmd_periodic(args) -> int:
    spec, lift = _map_from_args(args)
    if (args.k2 is None) != (args.k3 is None):
        missing = "--k3" if args.k3 is None else "--k2"
        raise ValueError(f"the parity certificate needs --k2 and --k3: {missing} is missing")
    cert = None
    if args.k2 is not None:  # before the search, which takes seconds
        cert = periodic.parity_certificate(_int_pair(args.k2), _int_pair(args.k3))
    config = {
        "command": "periodic",
        "map": spec,
        "period": args.period,
        "box": args.box,
        "seeds": args.seeds,
    }
    result = periodic.find_periodic(
        lift, args.period, displacement_box=args.box, seed_grid=(args.seeds, args.seeds)
    )
    artifact = {
        "config": config,
        "orbits": [o.to_json_dict() for o in result.orbits],
        "non_isolated": result.non_isolated,
        "seeds": {
            "total": result.seeds_total,
            "converged": result.seeds_converged,
            "singular": result.seeds_singular,
        },
    }
    if result.orbits:
        hull = periodic.realized_vectors(result.orbits)
        artifact["realized_hull"] = {"vertices": [list(v) for v in hull.vertices]}
    if cert is not None:
        artifact["parity_certificate"] = {
            "k2": list(_int_pair(args.k2)),
            "k3": list(_int_pair(args.k3)),
            "determinant": cert.determinant,
            "independent": cert.independent,
        }
    out = _outdir(args)
    serialize.write_json(out / "periodic.json", artifact)
    vectors = ", ".join(
        f"({o.displacement[0]}/{o.period},{o.displacement[1]}/{o.period})" for o in result.orbits
    )
    flag = " non-isolated-continuum" if result.non_isolated else ""
    print(f"map={maps.map_label(lift)} period={args.period} orbits={len(result.orbits)}{flag} vectors=[{vectors}]")
    if "parity_certificate" in artifact:
        pc = artifact["parity_certificate"]
        print(f"parity determinant={pc['determinant']} independent={'true' if pc['independent'] else 'false'}")
    return 0


def _cmd_cover(args) -> int:
    spec, lift = _map_from_args(args)
    cover = covering.CoveringTorus(_factors(args.factors))
    if args.power != 1:
        lift = maps.Iterate(lift, args.power)
    starts = _starts(args.starts)
    config = {
        "command": "cover",
        "map": spec,
        "factors": list(cover.factors),
        "power": args.power,
        "iterations": args.iters,
        "cell_resolution": args.resolution,
        "starts": [list(s) for s in starts],
    }
    report = covering.transitivity_score(
        lift, cover, starts=starts, iterations=args.iters, cell_resolution=args.resolution
    )
    out = _outdir(args)
    serialize.write_json(out / "cover.json", {"config": config, **report.to_json_dict()})
    if args.pgm:
        serialize.write_pgm(out / "cover.pgm", report.grid[::-1])  # row 0 = top
    label = covering.classify_occupancy(report.occupancy)
    print(
        f"map={maps.map_label(lift)} cover={cover.label} occupancy={report.occupancy:.6f} "
        f"classification={label}"
    )
    return 0


def _cmd_verify(args) -> int:
    prop = args.property
    if prop == "parity":
        if args.k2 is None or args.k3 is None:
            raise ValueError("parity verification needs --k2 and --k3")
        cert = periodic.parity_certificate(_int_pair(args.k2), _int_pair(args.k3))
        ok = cert.independent and cert.determinant % 2 != 0
        print(
            f"property=parity determinant={cert.determinant} "
            f"independent={'true' if cert.independent else 'false'}"
        )
        return 0 if ok else 1

    _, lift = _map_from_args(args)
    grid = _grid(str(args.grid))
    horizons = _ints(str(args.horizons))
    if prop == "translation":
        disc = rotation.check_translation_equivariance(lift, _int_pair(args.v), grid, horizons)
    elif prop == "iterate-scaling":
        disc = rotation.check_iterate_scaling(lift, args.k, grid, horizons)
    elif prop == "sandwich":
        seeds = (args.seeds, args.seeds)
        periodic.check_search(args.q, args.box, seeds)  # before the estimate, which takes seconds
        est = rotation.estimate_rotation_set(lift, grid, horizons)
        found = periodic.find_periodic(lift, args.q, displacement_box=args.box, seed_grid=seeds)
        if not found.orbits:
            print(f"property=sandwich no periodic orbits found at q={args.q}")
            return 1
        hull = periodic.realized_vectors(found.orbits)
        slack = est.stability + _SANDWICH_SLACK
        disc = max(
            0.0,
            max(point_to_polygon_distance(v, est.hull) for v in hull.vertices) - slack,
        )
    else:  # argparse choices make this unreachable
        raise ValueError(f"unknown property {prop!r}")
    tol = _TOLERANCES[prop]
    ok = disc <= tol
    print(f"property={prop} discrepancy={disc:.6g} tolerance={tol:g} -> {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_maps_list(args) -> int:
    for name in sorted(maps.BUILTIN_MAPS):
        params = maps.map_defaults(name)
        example = {"map": name}
        if params:
            example["params"] = params
        print(f"{name:22s} {json.dumps(example)}")
    return 0


# --- parser ------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rotaset",
        description="Rotation sets, periodic orbits, entropy estimates, and finite coverings for torus maps.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rotset", help="estimate the rotation set of a map")
    _add_map_flags(p)
    _add_common_flags(p)
    p.add_argument("--grid", default="128", help="start grid: N or RxC (default 128)")
    p.add_argument("--horizons", default="100,500,2000", help="comma list (default 100,500,2000)")
    p.add_argument("--offset", type=float, default=0.0, help="grid offset in cells (default 0)")
    p.add_argument("--threshold", type=float, default=0.1, help="interior area threshold (default 0.1)")
    p.add_argument("--svg", action="store_true", help="also write rotset.svg")
    p.add_argument("--csv", action="store_true", help="also write rotset_samples.csv")
    p.set_defaults(func=_cmd_rotset)

    p = sub.add_parser("entropy", help="estimate topological entropy from spanning counts")
    _add_map_flags(p)
    _add_common_flags(p)
    p.add_argument("--eps", default="0.1,0.05", help="comma list, any order (default 0.1,0.05)")
    p.add_argument("--lengths", default="2..14", help="'a..b' or comma list (default 2..14)")
    p.add_argument("--resolution", type=int, default=256, help="candidate grid per axis (default 256)")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("periodic", help="find periodic orbits and rational rotation vectors")
    _add_map_flags(p)
    _add_common_flags(p)
    p.add_argument("--period", type=int, required=True, help="orbit period q")
    p.add_argument("--box", type=int, default=2, help="displacement bound: |p|∞ ≤ box·q (default 2)")
    p.add_argument("--seeds", type=int, default=64, help="seed grid per axis (default 64)")
    p.add_argument("--k2", help="even displacement pair 'a,b' for the parity certificate")
    p.add_argument("--k3", help="even displacement pair 'a,b' for the parity certificate")
    p.set_defaults(func=_cmd_periodic)

    p = sub.add_parser("cover", help="score orbit occupancy on a finite covering")
    _add_map_flags(p)
    _add_common_flags(p)
    p.add_argument("--factors", default="2x2", help="covering factors 'mxn', each 1 or 2 (default 2x2)")
    p.add_argument("--iters", type=int, default=1_000_000, help="orbit length (default 10^6)")
    p.add_argument("--resolution", type=int, default=32, help="cells per unit length (default 32)")
    p.add_argument("--starts", default="0.2,0.3", help="semicolon list of 'x,y' (default one start)")
    p.add_argument("--power", type=int, default=1, help="score the power-th iterate (default 1)")
    p.add_argument("--pgm", action="store_true", help="also write cover.pgm occupancy image")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("verify", help="check an algebraic or sandwich property")
    _add_map_flags(p)
    _add_common_flags(p)
    p.add_argument(
        "--property",
        required=True,
        choices=["iterate-scaling", "translation", "sandwich", "parity"],
    )
    p.add_argument("--k", type=int, default=2, help="iterate-scaling: power k (default 2)")
    p.add_argument("--v", default="1,0", help="translation: integer vector 'a,b' (default 1,0)")
    p.add_argument("--k2", help="parity: even pair 'a,b'")
    p.add_argument("--k3", help="parity: even pair 'a,b'")
    p.add_argument("--q", type=int, default=1, help="sandwich: orbit period (default 1)")
    p.add_argument("--box", type=int, default=2, help="sandwich: displacement bound (default 2)")
    p.add_argument("--seeds", type=int, default=64, help="sandwich: seed grid per axis (default 64)")
    p.add_argument("--grid", default="128", help="start grid: N or RxC (default 128)")
    p.add_argument("--horizons", default="100,500,2000", help="comma list (default 100,500,2000)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("maps-list", help="list built-in maps and their spec JSON")
    p.set_defaults(func=_cmd_maps_list)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        _apply_config(args) if hasattr(args, "config") else None
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IterationError as exc:
        print(f"iteration failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
