"""Command-line front end: bench, predict, calibrate, analyze.

Exit codes are a stable contract: 0 success, 2 input/config error or an
unreadable or unwritable path, 3 run failure, 4 degenerate calibration.
``bench`` names the failing campaign on a run failure; main() maps every
other exception to its code.  The config file is
JSON with a ``version`` key, built whole when it loads; see
example_config_dict() or README for the schema.  The SEMPERF_CONFIG
environment variable supplies the default config path.
"""

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .counts import CaseConfig
from .errors import CalibrationDegenerateError, SemperfError
from .gamma import (
    CalibrationInput,
    MachineProfile,
    analyze_usage_histogram,
    calibrate,
    normalize_node_usage,
    predict_time,  # unused here; perfbench/spans.py patches this name
)
from .harness import (
    CampaignSpec,
    _json_num,
    model_point,
    records_to_json,
    records_to_steps_csv,
    records_to_summary_csv,
    run_campaign,
    summary_rows,
    SUMMARY_COLUMNS,
)
from .partition import partition_elements  # unused; patched as above
from .profiles import builtin_profiles, example_config_dict
from .refdata import BASE_BANDWIDTH_MBS

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RUN = 3
EXIT_DEGENERATE = 4

CONFIG_ENV_VAR = "SEMPERF_CONFIG"


@dataclass
class ToolConfig:
    """Parsed tool configuration: machine profiles and campaign specs."""

    machines: dict
    campaigns: dict
    output_dir: Path
    formats: tuple = ("json", "csv")

    @classmethod
    def from_path(cls, path):
        """Read the config and build every machine, case and campaign in it.

        A malformed entry anywhere raises ValueError naming that entry, so a
        config either loads whole or not at all.
        """
        where = "JSON"
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
            where = "top level"
            if not (
                isinstance(raw, dict)
                and "version" in raw
                and all(
                    isinstance(raw.get(key, {}), dict)
                    for key in ("machines", "cases", "campaigns")
                )
            ):
                raise TypeError(
                    "need a JSON object with a version key and objects for "
                    "machines, cases and campaigns"
                )
            machines = dict(builtin_profiles())
            for name, params in raw.get("machines", {}).items():
                where = f"machine {name!r}"
                machines[name] = MachineProfile(name=name, **params)
            cases = {}
            for name, params in raw.get("cases", {}).items():
                where = f"case {name!r}"
                cases[name] = _case_from_dict(params)
            campaigns = {}
            for name, cdef in raw.get("campaigns", {}).items():
                where = f"campaign {name!r}"
                campaigns[name] = _campaign_from_dict(cdef, cases, machines)
            where = "formats"
            formats = raw.get("formats", ["json", "csv"])
            if not (
                isinstance(formats, list)
                and all(f in ("json", "csv") for f in formats)
            ):
                raise ValueError(
                    f"must be a list of json and csv (got {formats!r})"
                )
            where = "output_dir"
            output_dir = Path(raw.get("output_dir", "semperf-out"))
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            detail = (
                f"missing or unknown key {exc}"
                if isinstance(exc, KeyError)
                else exc
            )
            raise ValueError(f"config {path}, {where}: {detail}") from exc
        return cls(
            machines=machines,
            campaigns=campaigns,
            output_dir=output_dir,
            formats=tuple(formats),
        )

    def ensure_output_dir(self, override=None):
        out = Path(override) if override else self.output_dir
        out.mkdir(parents=True, exist_ok=True)
        if not os.access(out, os.W_OK):
            raise ValueError(f"output directory {out} is not writable")
        return out


def _given(params, *keys):
    """The keys params holds; the dataclass defaults fill in the rest."""
    return {key: params[key] for key in keys if key in params}


def _case_from_dict(params):
    return CaseConfig(
        elements=tuple(params["elements"]),
        degrees=tuple(params["degrees"]),
        **_given(params, "n_fields", "steps", "cg_iters_per_step"),
    )


def _campaign_from_dict(cdef, cases, machines):
    return CampaignSpec(
        kind=cdef["kind"],
        case=cases[cdef["case"]],
        machine=machines[cdef["machine"]],
        p_list=tuple(cdef.get("p_list", ())),
        weak_scales=tuple(
            (tuple(pt["elements"]), pt["p"]) for pt in cdef.get("scales", ())
        ),
        degrees=tuple(cdef.get("degrees", ())),
        **_given(cdef, "budget_s", "window_s", "jitter"),
    )


def _print_table(rows, columns):
    widths = {c: len(c) for c in columns}
    for row in rows:
        for c in columns:
            widths[c] = max(widths[c], len(str(row.get(c, ""))))
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))


def cmd_bench(args):
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if not config_path:
        raise ValueError(
            "no config given (pass a path or set " + CONFIG_ENV_VAR + ")"
        )
    config = ToolConfig.from_path(config_path)
    if args.campaign not in config.campaigns:
        raise ValueError(
            f"campaign {args.campaign!r} not in config "
            f"(have: {', '.join(sorted(config.campaigns)) or 'none'})"
        )
    spec = replace(
        config.campaigns[args.campaign], mode=args.mode, seed=args.seed
    )
    try:
        records = run_campaign(spec)
    except SemperfError as exc:
        print(
            f"campaign {args.campaign!r} failed: {exc}", file=sys.stderr
        )
        return EXIT_RUN
    base = config.ensure_output_dir(args.out) / args.campaign
    if "json" in config.formats:
        (base.parent / f"{base.name}_records.json").write_text(
            records_to_json(records), encoding="utf-8"
        )
    if "csv" in config.formats:
        (base.parent / f"{base.name}_summary.csv").write_text(
            records_to_summary_csv(records), encoding="utf-8"
        )
        (base.parent / f"{base.name}_steps.csv").write_text(
            records_to_steps_csv(records), encoding="utf-8"
        )
    for rec in records:
        if rec.window_samples:
            path = base.parent / f"{base.name}_windows.csv"
            with path.open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["timestamp", "usage"])
                for i, s in enumerate(rec.window_samples):
                    # repr round-trips the float exactly
                    writer.writerow([f"{i * spec.window_s:.1f}", repr(s)])
    _print_table(summary_rows(records), SUMMARY_COLUMNS)
    for rec in records:
        for warning in rec.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK


def cmd_predict(args):
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    machines = (
        ToolConfig.from_path(config_path).machines
        if config_path
        else builtin_profiles()
    )
    if args.machine not in machines:
        raise ValueError(
            f"unknown machine {args.machine!r} "
            f"(have: {', '.join(sorted(machines))})"
        )
    machine = machines[args.machine]
    case = CaseConfig(
        elements=tuple(args.elements),
        degrees=tuple(args.degrees),
        n_fields=args.n_fields,
        cg_iters_per_step=args.iters,
    )
    rec = model_point(case, machine, args.ranks)
    step = rec.steps[0]
    result = {
        "machine": machine.name,
        "P": args.ranks,
        "flops_per_step": step.flops,
        "words_per_step": step.halo_words_sent,
        "messages_per_step": step.halo_messages,
        "t_p_s": step.t_p,
        "t_c_s": step.t_c,
        "t_l_s": step.t_l,
        "t_total_s": step.walltime,
        "gamma": _json_num(rec.gamma),
        "efficiency": rec.efficiency,
        "speedup": rec.speedup,
    }
    if args.json:
        print(json.dumps(result, sort_keys=True, indent=2))
    else:
        width = max(len(k) for k in result)
        for key, value in result.items():
            shown = f"{value:.6g}" if isinstance(value, float) else value
            print(f"{key.ljust(width)}  {shown}")
    return EXIT_OK


def _read_calibration_table(path):
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json":
        table = json.loads(text)
    else:
        # cells are stripped; an empty or missing cell counts as absent.
        # Only CSV numbers are parsed here: JSON values reach
        # CalibrationInput as they are, so a JSON bool is refused there
        table = [
            {key: value.strip() for key, value in row.items() if key and value}
            for row in csv.DictReader(text.splitlines())
        ]
        for row in table:
            for key in row.keys() & {"t_p", "gamma", "sharing"}:
                row[key] = float(row[key])
    if not (
        isinstance(table, list) and all(isinstance(row, dict) for row in table)
    ):
        raise ValueError(f"table {path} must be a JSON list of objects")
    rows = []
    for entry in table:
        if not {"name", "t_p", "gamma", "bandwidth_model"} <= entry.keys():
            raise ValueError(
                f"table {path} needs columns name,t_p,gamma,bandwidth_model"
                "[,sharing] in every row"
            )
        rows.append(
            CalibrationInput(
                name=entry["name"],
                t_p=entry["t_p"],
                gamma=entry["gamma"],
                bandwidth_model=entry["bandwidth_model"],
                sharing=entry.get("sharing", 1.0),
            )
        )
    return rows


def cmd_calibrate(args):
    rows = _read_calibration_table(args.table)
    fit = calibrate(rows, base_bandwidth=args.base_bandwidth)
    out = Path(args.out) if args.out else Path("gamma_fit.json")
    out.write_text(
        json.dumps(fit.to_json_dict(), sort_keys=True, indent=2),
        encoding="utf-8",
    )
    print(f"W      {fit.w_mb:10.4f} MB per step")
    print(f"alpha  {fit.alpha:10.4f}")
    print(f"T_L    {fit.t_l:10.4f} s")
    print(f"b2     {fit.scaled_bandwidth:10.4f} MB/s")
    for name, resid in zip(fit.input_names, fit.residuals):
        print(f"residual[{name}]  {resid:+.3e} s")
    print(f"wrote {out}")
    return EXIT_OK


def _read_samples(path):
    text = Path(path).read_text(encoding="utf-8")
    samples = []
    header_allowed = True
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            samples.append(float(line.replace(",", " ").split()[-1]))
        except (ValueError, IndexError):
            if not header_allowed:
                raise ValueError(
                    f"{path}:{lineno}: cannot parse a usage value from "
                    f"{line!r}"
                ) from None
        header_allowed = False
    if not samples:
        raise ValueError(f"no usage samples found in {path}")
    return samples


def cmd_analyze(args):
    samples = _read_samples(args.samples)
    if (args.cores_per_node is None) != (args.active_ranks is None):
        raise ValueError(
            "--cores-per-node and --active-ranks must be given together"
        )
    if args.cores_per_node is not None:
        samples = [
            normalize_node_usage(s, args.active_ranks, args.cores_per_node)
            for s in samples
        ]
    analysis = analyze_usage_histogram(samples, bin_width=args.bin_width)
    out = Path(args.out) if args.out else Path(args.samples).with_suffix(".hist")
    lines = [
        f"{edge:.6f} {count}"
        for edge, count in zip(analysis.bin_edges, analysis.counts)
    ]
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    gamma = "inf" if math.isinf(analysis.gamma) else f"{analysis.gamma:.4f}"
    print(f"samples  {len(samples)}")
    print(f"mean_E   {analysis.mean:.4f}")
    print(f"gamma    {gamma}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_init_config(args):
    path = Path(args.path)
    path.write_text(
        json.dumps(example_config_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="semperf",
        description=(
            "Spectral-element benchmark kernel and Gamma-model toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run a configured campaign")
    bench.add_argument("campaign", help="campaign name from the config")
    bench.add_argument(
        "--config", default=None, help=f"config path (default ${CONFIG_ENV_VAR})"
    )
    bench.add_argument("--mode", choices=("sim", "exec"), default="sim")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", default=None, help="output directory override")
    bench.set_defaults(func=cmd_bench)

    predict = sub.add_parser("predict", help="model one scaling point")
    predict.add_argument("--machine", required=True)
    predict.add_argument("--config", default=None)
    predict.add_argument(
        "--elements", "-E", nargs=3, type=int, default=(8, 8, 8)
    )
    predict.add_argument(
        "--degrees", "-N", nargs=3, type=int, default=(8, 8, 8)
    )
    predict.add_argument("--n-fields", type=int, default=1)
    predict.add_argument("--ranks", "-P", type=int, default=1)
    predict.add_argument("--iters", type=int, default=100)
    predict.add_argument("--json", action="store_true")
    predict.set_defaults(func=cmd_predict)

    calib = sub.add_parser(
        "calibrate", help="fit (W, alpha, T_L) from a measurement table"
    )
    calib.add_argument("table", help="CSV or JSON measurement table")
    calib.add_argument(
        "--base-bandwidth", type=float, default=BASE_BANDWIDTH_MBS
    )
    calib.add_argument("--out", default=None, help="fit artifact path")
    calib.set_defaults(func=cmd_calibrate)

    analyze = sub.add_parser(
        "analyze", help="histogram per-window efficiency samples"
    )
    analyze.add_argument("samples", help="CSV of timestamp,usage rows")
    analyze.add_argument("--bin-width", type=float, default=0.01)
    analyze.add_argument("--cores-per-node", type=int, default=None)
    analyze.add_argument("--active-ranks", type=int, default=None)
    analyze.add_argument("--out", default=None, help="histogram output path")
    analyze.set_defaults(func=cmd_analyze)

    init = sub.add_parser("init-config", help="write an example config file")
    init.add_argument("path", nargs="?", default="semperf.json")
    init.set_defaults(func=cmd_init_config)

    return parser


def main(argv=None):
    """Run one command and map its failure to the exit-code contract."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CalibrationDegenerateError as exc:
        print(f"calibration degenerate: {exc}", file=sys.stderr)
        if exc.inputs:
            print(f"inputs: {', '.join(exc.inputs)}", file=sys.stderr)
        return EXIT_DEGENERATE
    except SemperfError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUN
    except (ValueError, TypeError, KeyError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
