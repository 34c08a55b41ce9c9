"""CLI of the campaign service.

Server side::

    python -m repro.service serve  --store sqlite:results.db --port 8642 \
                                   --workers 2
    python -m repro.service worker --store sqlite:results.db

Client side (against a running server)::

    python -m repro.service submit --url http://127.0.0.1:8642 \
        --workload libquantumm --tool LLFI --category cmp \
        --trials 100 --shards 2 --wait
    python -m repro.service poll   --url ... --job 1
    python -m repro.service cancel --url ... --job 1
    python -m repro.service fetch  --url ... --job 1 --out result.json
    python -m repro.service jobs   --url ...
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import FaultInjectionError
from repro.service import client
from repro.service.request import CampaignRequest
from repro.service.server import serve
from repro.service.worker import worker_loop


def _store_path(spec: str) -> str:
    """The service needs the SQLite backend; strip the scheme and reject
    directory specs early with a clear message."""
    if spec.startswith("sqlite:"):
        return spec[len("sqlite:"):]
    if spec.startswith("dir:"):
        raise FaultInjectionError(
            "the campaign service requires a SQLite store (job state "
            "lives in the database); pass --store sqlite:PATH")
    return spec


def _add_url(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--url", required=True,
                        help="service base URL, e.g. http://127.0.0.1:8642")


def _add_job(parser: argparse.ArgumentParser) -> None:
    _add_url(parser)
    parser.add_argument("--job", type=int, required=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m repro.service",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the HTTP service + coordinator")
    p.add_argument("--store", required=True, help="sqlite:PATH store spec")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642,
                   help="0 picks an ephemeral port (printed at startup)")
    p.add_argument("--workers", type=int, default=0,
                   help="shard worker processes to spawn alongside")

    p = sub.add_parser("worker", help="claim and run shards from a store")
    p.add_argument("--store", required=True, help="sqlite:PATH store spec")
    p.add_argument("--poll", type=float, default=0.1,
                   help="seconds between claim attempts when idle")
    p.add_argument("--idle-exit", type=float, default=None,
                   help="exit after this many idle seconds (default: never)")

    p = sub.add_parser("submit", help="submit one campaign request")
    _add_url(p)
    p.add_argument("--workload", required=True)
    p.add_argument("--tool", required=True, choices=("LLFI", "PINFI"))
    p.add_argument("--category", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=20140623)
    p.add_argument("--fault-model", default="bitflip")
    p.add_argument("--ci-margin", type=float, default=0.0)
    p.add_argument("--round-size", type=int, default=0)
    p.add_argument("--variant", default="")
    p.add_argument("--shards", type=int, default=1,
                   help="trial-index shards the job is split into")
    p.add_argument("--checkpoint-stride", type=int, default=None,
                   help="worker-side checkpoint policy (accelerator only; "
                        "default: the workers' automatic stride, 0 runs "
                        "the scalar path)")
    p.add_argument("--batch", type=int, default=None,
                   help="worker-side batched suffix execution (default: "
                        "off)")
    p.add_argument("--wait", action="store_true",
                   help="poll until the job finishes, then print the "
                        "result")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="--wait timeout in seconds")

    for name, helptext in (("poll", "print one job's state"),
                           ("cancel", "cancel one job"),):
        p = sub.add_parser(name, help=helptext)
        _add_job(p)

    p = sub.add_parser("fetch", help="print a finished job's result")
    _add_job(p)
    p.add_argument("--out", default=None,
                   help="also write the result JSON to this file")

    p = sub.add_parser("jobs", help="list every job in the store")
    _add_url(p)
    return parser


def _cmd_submit(args: argparse.Namespace) -> int:
    request = CampaignRequest(
        workload=args.workload, tool=args.tool, category=args.category,
        trials=args.trials, seed=args.seed, fault_model=args.fault_model,
        ci_margin=args.ci_margin, round_size=args.round_size,
        variant=args.variant)
    accel = {knob: getattr(args, knob)
             for knob in ("checkpoint_stride", "batch")
             if getattr(args, knob) is not None}
    reply = client.submit(args.url, request, shards=args.shards,
                          accel=accel)
    print(json.dumps(reply))
    if not args.wait:
        return 0
    job = client.wait(args.url, reply["job"], timeout_s=args.timeout)
    if job["state"] != "done":
        print(json.dumps({"job": job["id"], "state": job["state"],
                          "error": job.get("error")}))
        return 1
    result = client.fetch(args.url, reply["job"])
    print(json.dumps(result.to_json()))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "serve":
            serve(_store_path(args.store), host=args.host, port=args.port,
                  workers=args.workers)
            return 0
        if args.command == "worker":
            executed = worker_loop(_store_path(args.store),
                                   poll_s=args.poll,
                                   idle_exit_s=args.idle_exit)
            print(f"worker exiting after {executed} shards")
            return 0
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "poll":
            print(json.dumps(client.poll(args.url, args.job)))
            return 0
        if args.command == "cancel":
            print(json.dumps(client.cancel(args.url, args.job)))
            return 0
        if args.command == "fetch":
            result = client.fetch(args.url, args.job)
            data = json.dumps(result.to_json())
            if args.out:
                with open(args.out, "w") as f:
                    f.write(data + "\n")
            print(data)
            return 0
        if args.command == "jobs":
            print(json.dumps(client.jobs(args.url)))
            return 0
    except FaultInjectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
