"""Measurement-apparatus models.

The paper's numbers come from two instruments attached to real
DECstations: a hardware logic analyzer ("Monster") that captured
complete address traces by stalling the CPU whenever its buffer filled,
and a non-invasive hardware monitor that measured CPI directly.  This
subpackage models both, so the reproduction can (a) produce the CPI
breakdowns of Tables 1 and 3 and (b) quantify the trace-capture
distortion the paper bounds at 5%.
"""

from repro._util.lazy import lazy_exports

_EXPORTS = {
    "DECSTATION_3100": ".hwcounters",
    "MachineSpec": ".hwcounters",
    "HardwareMonitor": ".hwcounters",
    "MonsterCapture": ".logic_analyzer",
    "CaptureReport": ".logic_analyzer",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
