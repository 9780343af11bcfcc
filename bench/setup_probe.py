"""Time one fresh process's set-up: ``import mrkit.cli`` plus
``corpus.bundled_dataset()``.

    PYTHONPATH=src python3 bench/setup_probe.py

Prints ``{"setup_s": seconds, "setup_ref_s": seconds at the reference
speed, "module": path of mrkit.cli}``.  Nothing but ``time``, ``signal``
and the benchmark's ``speed`` is imported before the clock starts, so the
figure holds every import mrkit itself needs.  A ``speed.SpeedProbe``
ticks meanwhile; if set-up is too short for enough ticks, the process
spins briefly afterwards to take them.
"""

import time

import speed

PERIOD_S = 0.01
SPIN_S = 0.1


def main() -> None:
    with speed.SpeedProbe(PERIOD_S) as probe:
        start = time.perf_counter()
        import mrkit.cli
        from mrkit import corpus

        corpus.bundled_dataset()
        elapsed = time.perf_counter() - start
    ticks = probe.ticks if len(probe.ticks) >= speed.MIN_TICKS else speed.spin_ticks(SPIN_S)
    import json

    print(json.dumps({"setup_s": elapsed,
                      "setup_ref_s": speed.ref_seconds(elapsed, ticks, ticks),
                      "module": mrkit.cli.__file__}))


if __name__ == "__main__":
    main()
