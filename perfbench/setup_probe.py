"""Set-up time of one workload, measured in a fresh process.

Set-up runs from the configuration object to the first finished
right-hand side: `build_kernel_set` plus one `rhs_total` on the initial
state, with whatever FFT planning and thread-pool start-up that first
call pays.  Imports and input generation are not timed.  Prints the
seconds as its last line.

    python3 perfbench/setup_probe.py --workload brownian3_n17 --seed 1
"""

import argparse
import time

from workloads import WORKLOADS, config_from_dict, ttagg


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    config = config_from_dict(WORKLOADS[args.workload].config_dict(args.seed))

    t0 = time.perf_counter()
    kernels = ttagg.config.build_kernel_set(config)
    state = config.initial.state(config.n_classes, config.time.t0)
    ttagg.rhs.rhs_total(kernels, state, config.execution_plan())
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
