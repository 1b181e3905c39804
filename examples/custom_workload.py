"""Modelling your own workload: the adoption path.

The paper's lasting message is *"re-evaluate memory-system designs
against the software you actually run."*  This example does exactly
that for a hypothetical modern service — a bloated, OS-chatty
web/application server — using the builder API:

1. describe the workload (components, footprints, locality, data),
2. sanity-check the synthesized trace's characteristics,
3. sweep the paper's memory-system design space for it.

Run:  python examples/custom_workload.py
"""

from repro import CacheGeometry, MemorySystemConfig, MemoryTiming
from repro.core.metrics import measure_mpi
from repro.core.study import evaluate_trace
from repro.trace import compute_stats, to_line_runs
from repro.workloads import WorkloadBuilder, synthesize_trace

N = 300_000


def main() -> None:
    # 1. Describe the workload.  Numbers in the spirit of Table 2: a
    #    large user binary over a busy kernel and an OS service task.
    workload = (
        WorkloadBuilder(
            "appserver",
            os_name="mach3",
            description="request parsing + templating over RPC-heavy OS services",
        )
        .component("user", fraction=0.50, code_kb=260, visit_instructions=22)
        .component("kernel", fraction=0.32, code_kb=130, visit_instructions=16)
        .component("bsd_server", fraction=0.18, code_kb=70,
                   visit_instructions=18)
        .data(load_rate=0.24, store_rate=0.09, streaming=0.15,
              store_burst_len=3.0)
        .scheduling(burst_visits=5.0)
        .build()
    )
    trace = synthesize_trace(workload, N, seed=1)
    print(compute_stats(trace).describe())

    reference = CacheGeometry(8192, 32, 1)
    mpi = measure_mpi(to_line_runs(trace.ifetch_addresses(), 32), reference)
    print(f"\nreference-cache MPI: {mpi.mpi_per_100:.2f} per 100 "
          "(IBS territory - this workload needs the paper's treatment)\n")

    # 3. Sweep the paper's design space for THIS workload.
    candidates = {
        "baseline (no L2)": MemorySystemConfig.economy(),
        "+ 32KB 2-way L2": MemorySystemConfig.economy().with_l2(
            CacheGeometry(32 * 1024, 64, 2)
        ),
        "+ 64KB 8-way L2": MemorySystemConfig.economy().with_l2(
            CacheGeometry(64 * 1024, 64, 8)
        ),
        "+ 64KB 8-way L2, 32B/cyc": MemorySystemConfig.economy()
        .with_l2(CacheGeometry(64 * 1024, 64, 8))
        .with_l1_interface(MemoryTiming(6, 32)),
    }
    print(f"{'configuration':28s}  L1 CPI  L2 CPI  total")
    for label, config in candidates.items():
        mechanism = "prefetch" if "32B/cyc" in label else "demand"
        options = {"n_prefetch": 1} if mechanism == "prefetch" else {}
        result = evaluate_trace(trace, config, mechanism, **options)
        print(
            f"{label:28s}  {result.cpi_l1:6.3f}  {result.cpi_l2:6.3f}  "
            f"{result.cpi_instr:5.3f}"
        )

    print(
        "\nSame conclusion the paper reached for IBS: for bloated, "
        "OS-intensive code, spend the area on an associative on-chip L2."
    )


if __name__ == "__main__":
    main()
