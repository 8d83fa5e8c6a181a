"""A fixed stdlib-only job that gauges how fast the machine is right now.

    python3 perfbench/reference.py OUT_FILE

It never imports adastream, so no change to the program moves its time. Its
work mix is the simulator's in small: seeded random floats, per-tick event
dicts kept in memory, JSON lines, and one file write. The benchmark runs it
as a child process after each experiment's children and divides each
child's wall time by the mean of the reference runs on either side, so slow
spells of a shared host cancel out.
"""

import json
import random
import sys

TICKS = 60_000
TICKS_PER_RUN = 30


def main(out_file: str) -> None:
    rng = random.Random(1)
    events = []
    for tick in range(TICKS):
        speed = rng.gauss(5.0, 1.0)
        events.append({
            "run": tick // TICKS_PER_RUN,
            "t": tick * 1.0,
            "event": "monitor",
            "speed": speed,
            "config": "HR" if speed > 5.0 else "LR",
        })
    text = "\n".join(json.dumps(event, separators=(",", ":")) for event in events)
    with open(out_file, "w", encoding="utf-8") as out:
        out.write(text)


if __name__ == "__main__":
    main(sys.argv[1])
