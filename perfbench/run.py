"""The repo benchmark: live frame latency and capacity, regime switches,
and time to a certified schedule-table bank.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tracker-dp --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload with spans recorded around the calls into
each layer and prints every per-layer metric instead (a layer the
workload does not run reads 0).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
run that cannot produce a result (no ``src/repro`` in the checkout, a
crashed workload) exits non-zero without printing one.

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``tracker-dp``   — color tracker on the process substrate, open loop;
* ``webinfer-ipc`` — web-inference tier on the process substrate, open loop;
* ``kiosk-day``    — tracker on the threaded substrate through a seeded
  kiosk day, with regime switches on the user's path;
* ``offline-bank`` — time to a fully certified table bank, cold and warm.

Every run uses a fresh temporary directory under ``.perfbench/`` in the
checkout for its schedule caches and removes it at exit; spans of a
traced run are written to ``.perfbench/trace-<workload>-<seed>.jsonl``.
"""

import time

T0 = time.perf_counter()  # before anything of the program is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tracker-dp", "webinfer-ipc", "kiosk-day", "offline-bank")


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="measure one set-up in this fresh interpreter and print it")
    ap.add_argument("--cache", help="schedule cache directory of a set-up probe")
    return ap.parse_args(argv)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def probe(args) -> None:
    if args.workload == "offline-bank":
        import bank

        bank.full_bank(args.seed)
        print(time.perf_counter() - T0)
    else:
        import live_workloads

        print(live_workloads.probe_setup(args.workload, args.seed, args.cache, T0))


def run(args, spec: dict, scratch: str) -> None:
    import common
    import live_workloads as lw

    names = [m["name"] for m in spec["end_to_end" if not args.trace else "per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    res = common.Result(units)
    tracer = common.Tracer() if args.trace else None
    env = common.recorded_env()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  cpus {os.cpu_count()}")
    print("  program environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    runner = os.path.relpath(os.path.abspath(__file__), ROOT)
    try:
        if args.workload == "offline-bank":
            import bank

            bank.run_bank(args.seed, args.seconds, tracer, res, scratch, runner, ROOT)
        elif args.workload == "kiosk-day":
            lw.run_kiosk(args.seed, args.seconds, tracer, res, scratch, runner, ROOT)
        else:
            wl = lw.TRACKER_DP if args.workload == "tracker-dp" else lw.WEBINFER_IPC
            lw.run_steady(wl, args.seed, args.seconds, tracer, res, scratch, runner, ROOT)
    finally:
        if tracer is not None:
            tracer.restore()
    res.put("rss_peak_mb", common.rss_peak_mb())
    if tracer is not None:
        tracer.dump(os.path.join(ROOT, ".perfbench",
                                 f"trace-{args.workload}-{args.seed}.jsonl"))
    res.emit(names, absent=0.0 if args.trace else None)


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker.

    The standard library starts it with the first shared-memory segment
    and otherwise leaves it to exit after this interpreter does; stopping
    it here means a run ends with every process it started ended.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(1, HERE)
    if args.probe_setup:
        try:
            probe(args)
        finally:
            stop_resource_tracker()
        return 0
    spec = load_spec()
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        run(args, spec, scratch)
    except Exception as exc:  # noqa: BLE001 - reported, and no result printed
        import traceback

        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        stop_resource_tracker()
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
