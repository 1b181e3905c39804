"""Beyond the paper: the extension studies.

Two questions the paper raises without a table of its own: which
workload components cause the misses (Section 4's discussion), and
what the optimized system's CPIinstr floor costs a multi-issue machine
(the conclusion).  This example runs both studies and prints the
findings.

Run:  python examples/beyond_the_paper.py
"""

from repro.experiments import ext_components, ext_multiissue
from repro.experiments.common import ExperimentSettings

SETTINGS = ExperimentSettings(n_instructions=200_000, seed=0)


def main() -> None:
    components = ext_components.run(
        SETTINGS, workload_names=("mpeg_play", "sdet", "groff")
    )
    print(components.render())
    print(
        "\n-> OS and server components miss out of proportion to their "
        "execution time: short, scattered activations are the expensive "
        "kind of code.\n"
    )

    print(ext_multiissue.run(SETTINGS).render())
    print(
        "\n-> The paper's conclusion, quantified: the optimized system's "
        "fetch floor costs a quad-issue machine about half its "
        "throughput on IBS, while SPEC barely notices - which is why "
        "'coping with code bloat' mattered for the superscalar era."
    )


if __name__ == "__main__":
    main()
