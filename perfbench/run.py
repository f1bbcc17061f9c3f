#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <serve_open|churn_ivf|paper_suite> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) with path
dependencies on the crates under crates/. It is built offline, into
CARGO_TARGET_DIR (default: .bench_build). When the checkout carries the
offline stand-ins for external crates under .devstubs/, they are patched
in from this checkout. The last line of standard output is the result
JSON; the exit code is non-zero on a build failure or a wrong result.
With --trace 1 the spans of the traced run are written under the target
directory.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    build = ["cargo", "build", "--release", "--offline",
             "--manifest-path", os.path.join(here, "Cargo.toml")]
    stubs = os.path.join(root, ".devstubs")
    if os.path.isdir(stubs):
        for name in sorted(os.listdir(stubs)):
            path = os.path.join(stubs, name)
            if os.path.isfile(os.path.join(path, "Cargo.toml")):
                build += ["--config", f'patch.crates-io.{name}.path="{path}"']
    # Cargo's own output goes to stderr, keeping stdout for the result.
    if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = args[args.index("--workload") + 1] if "--workload" in args else "all"
        seed = args[args.index("--seed") + 1] if "--seed" in args else "0"
        spans = os.path.join(target, "perfbench-spans", f"{workload}-{seed}.jsonl")
        args += ["--spans-out", spans]
    binary = os.path.join(target, "release", "cis-perfbench")
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
