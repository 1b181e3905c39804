"""Table 2 — The IBS workloads.

The paper's Table 2 is the workload inventory: each benchmark, its
version, and what it exercises, plus the two operating systems.  We
reproduce it from the registry metadata, with the model's structural
parameters (footprint, component count) alongside — the quantities the
descriptions imply.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util.fmt import format_table
from repro.workloads.ibs import IBS_WORKLOADS
from repro.workloads.os_model import MACH3, ULTRIX, os_component_inventory
from repro.plan import inputs as plan_inputs


@dataclass(frozen=True)
class Table2Result:
    """Reproduced Table 2 (workload inventory)."""

    workloads: dict[str, dict] = field(default_factory=dict)
    os_layers: dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        headers = ["Workload", "Code KB", "Components", "Description"]
        body = []
        for name, info in self.workloads.items():
            description = info["description"]
            if len(description) > 58:
                description = description[:55] + "..."
            body.append(
                [
                    name,
                    f"{info['code_kb']:.0f}",
                    str(info["n_components"]),
                    description,
                ]
            )
        table = format_table(headers, body, title="Table 2: The IBS workloads")
        os_lines = [
            f"  {os_name}: {layers} software layers"
            for os_name, layers in self.os_layers.items()
        ]
        return table + "\n\nOperating systems:\n" + "\n".join(os_lines)


def run(settings=None) -> Table2Result:
    """Reproduce Table 2 from the workload registry.

    ``settings`` is accepted (and ignored) for interface uniformity with
    the other experiments.
    """
    workloads = {
        name: {
            "description": workload.description,
            "code_kb": workload.total_code_kb,
            "n_components": len(workload.components),
        }
        for name, workload in IBS_WORKLOADS.items()
    }
    os_layers = {
        "Ultrix 3.1": len(os_component_inventory(ULTRIX)),
        "Mach 3.0": len(os_component_inventory(MACH3)),
    }
    return Table2Result(workloads=workloads, os_layers=os_layers)


def plan_cells(settings=None):
    """The sweep-plan compilation: one registry-only cell, no shared inputs."""
    return plan_inputs.run_cell(run, settings)
