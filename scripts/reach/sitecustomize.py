"""Reach probe: record every ``src/repro`` function this process runs.

Put this directory on ``PYTHONPATH`` and set ``REPRO_REACH_DIR`` to a
directory; every Python process started that way (bench workers and other
subprocesses inherit both) installs a profile hook in all its threads and,
at exit, writes the functions it entered to ``<dir>/<pid>.reach`` as
``repro/<module path>:<first line>`` rows, relative to the directory the
imported ``repro`` package lives in.  ``scripts/reach_report.py`` reads
them back.  Without ``REPRO_REACH_DIR`` this module does nothing.
"""

import atexit
import os
import sys
import threading

_OUT = os.environ.get("REPRO_REACH_DIR")


def _install() -> None:
    seen: set = set()
    add = seen.add

    def profile(frame, event, arg):
        # Every event's frame is a function that ran: no test on ``event``.
        add(frame.f_code)

    def dump() -> None:
        sys.setprofile(None)
        package = sys.modules.get("repro")
        if package is None or not getattr(package, "__file__", None):
            return
        src = os.path.dirname(os.path.dirname(os.path.realpath(package.__file__))) + os.sep
        rows = set()
        for code in seen:
            path = os.path.realpath(code.co_filename)
            if path.startswith(src) and code.co_name != "<module>":
                rows.add(f"{path[len(src):]}:{code.co_firstlineno}\n")
        with open(os.path.join(_OUT, f"{os.getpid()}.reach"), "a", encoding="utf-8") as out:
            out.writelines(sorted(rows))

    atexit.register(dump)
    threading.setprofile(profile)
    sys.setprofile(profile)


if _OUT:
    _install()
