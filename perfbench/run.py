#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 25 --trace 0

Every build and run output stays inside the checkout: the Go build
cache, the binary and the result files go under the directory named by
CARGO_TARGET_DIR, or .bench_build when it is unset. The last line of
standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840


def main() -> int:
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: run from the repository root (no go.mod here)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        # The go command keeps its env file and telemetry under the user
        # config directory; point it inside the checkout as well.
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    tmp = binary + ".tmp"
    try:
        subprocess.run(["go", "build", "-o", tmp, "."], cwd=bench, env=env,
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    os.replace(tmp, binary)
    args = [binary, "-out", os.path.join(build, "results")]
    # Accept --flag as well as -flag; Go's flag package takes both.
    args += sys.argv[1:]
    sys.stdout.flush()
    os.execve(binary, args, env)
    return 1


if __name__ == "__main__":
    sys.exit(main())
