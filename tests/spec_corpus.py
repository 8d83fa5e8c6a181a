"""The recorded test inputs: examples drawn once from the strategies below, one compact JSON example
a line, each file pinned in DIGESTS. The spec documents feed `check_document`; the fmean lists, the
document mutations and the stream op sequences feed spec_check's three property checks. Run as a
script, it redraws every file with DRAWS: each one's example count and seed, the sha384 digest
Hypothesis took of the property that first drew it, which seeded that property's fixed draws.
Hypothesis also mixes constants into about one draw in twenty, from the literals of every loaded
module outside the standard library, site-packages and test files; the redraw hands it the pool
the corpus was first drawn with, spec_corpus_constants.json (pinned in POOL_SHA256), in place of
that collection, so the files are a function of this module and that pool alone. A redraw is a
deliberate re-pin. Outside the `__main__` guard this module imports only the standard library."""

import hashlib
import json
from pathlib import Path

DRAWS = {
    "bounded": (150, 0x6E7DB4FBDACC4679931699107EA1F5C3ACA96618E37ABB11B326DF11B576BE0990FC832A628DCF9096EF58530327E0F7),
    "own_space": (50, 0x5B0292AEC00AE0E98FA325E04674831F0033AB75BC4CC8F08700B2F15AC584F272A18649A5C22098352020D64276320D),
    "fmean": (120, 0x28FB0762FF1512EC5F89CDED43D534BD5D3C5419354151CD754C14C858829FF9FFB14DC760B1131A93E17F50190BDC2F),
    "mutations": (500, 0x84001F4D136398A851756F1BC8A88F673CC8060360ABA347AF11572BD8123C6F25B7F3365EAA4D1EAD5BF6D5E75EC89C),
    "stream_ops": (200, 0xD6B1DFD90812B194E4F63D0C98AC58A77D2718DE46C8E0DFCC6C149EDD27B300607133CCFAD27B333BEF5E246957BE44),
}
DIGESTS = {
    "bounded": "7847ca59170c8d2d008454c9d91300b2b6198957607561a96fb9a9cf4ca472ee",
    "own_space": "54586554e8c20869e5934e715e0a930564a2e86d5a30863381addc68389d0b68",
    "fmean": "b031d6b70aa2d1835aa63ac5dc1333434764b1700a1214490a6b4ba4fa875570",
    "mutations": "a37b808272379c0da56a9bf5f1632c399b08096fb865e36b078b2e12b3af4c09",
    "stream_ops": "f4b4b4d1537ad4f61d0bade15f4daf3d1fe2bb01346a79c139b0e388bc810f73",
}
# The 12 integers, 26 floats, 4 bytes (as latin-1 text) and 209 strings Hypothesis had collected
# from the package's and the benchmark's literals when it first drew the corpus.
POOL = Path(__file__).with_name("spec_corpus_constants.json")
POOL_SHA256 = "b295ed60626cd038eea90874b7e9e7ba4450cb0b7b7e4b51024bb4471d107113"

# The value of a mutation that deletes its path (the root's included, which leaves no document);
# a mutation line stores it as a path with no value.
DELETE = object()

# The bundled adaptive document with one entry in each list it may hold, which the recorded
# mutations change.
BASE = {
    **json.loads((Path(__file__).resolve().parents[1] / "src/adastream/configs/table3-adaptive.json").read_bytes()),
    "faults": [{"start_s": 0.0, "end_s": 180.0, "kind": "probe-unavailable"}],
    "user_overrides": [{"at_s": 150.0, "target": "HR"}],
    "adaptation_space": [
        {"name": "LR", "frame_rate": 30, "scale_w": 320, "scale_h": 240, "quality_score": 0.99},
        {"name": "HR", "frame_rate": 60, "scale_w": 720, "scale_h": 480, "quality_score": 0.2},
    ],
}

# Per-switch delay that makes one switch per 30 s run cost 9% of the run:
# solves 1 - x/30 = 0.91.
DELAY_US = 2_700_000


def _repeating(values: list) -> dict:
    """`values` as its shortest repeating prefix and its length; repr tells -0.0 from 0.0."""
    keys = list(map(repr, values))
    period = next(p for p in range(1, len(keys) + 1) if keys[p:] == keys[:-p])
    return {"repeat": values[:period], "length": len(values)}


# Each file's example, as its JSON line holds it: (encode, decode).
FORMATS = {
    "bounded": (lambda document: document, lambda document: document),
    "own_space": (lambda document: document, lambda document: document),
    # a list of floats; NaN, ±inf and -0.0 round-trip through json
    "fmean": (_repeating, lambda line: (line["repeat"] * (line["length"] // len(line["repeat"]) + 1))[: line["length"]]),
    # a list of (path, value) mutations
    "mutations": (
        lambda mutations: [[list(path)] if value is DELETE else [list(path), value] for path, value in mutations],
        lambda line: [(tuple(mutation[0]), mutation[1] if len(mutation) == 2 else DELETE) for mutation in line],
    ),
    # a switch delay and a list of stream operations
    "stream_ops": (
        lambda example: [example[0], [list(op) for op in example[1]]],
        lambda line: (line[0], [tuple(op) for op in line[1]]),
    ),
}


def path_of(name: str) -> Path:
    return Path(__file__).with_name(f"spec_corpus_{name}.jsonl")


def pinned(path: Path, sha256: str) -> bytes:
    """The bytes of `path`, once they match their pinned sha256."""
    if hashlib.sha256(data := path.read_bytes()).hexdigest() != sha256:
        raise ValueError(f"{path.name} does not match its pinned sha256 in tests/spec_corpus.py")
    return data


def read(name: str):
    """Each (`file:line`, example) of file `name`, once the file matches its pinned sha256."""
    path, decode = path_of(name), FORMATS[name][1]
    for number, line in enumerate(pinned(path, DIGESTS[name]).decode("utf-8").splitlines(), 1):
        yield f"{path.name}:{number}", decode(json.loads(line))


if __name__ == "__main__":
    import math

    from hypothesis import HealthCheck, given, seed, settings
    from hypothesis import strategies as st
    from hypothesis.internal.conjecture import providers
    from hypothesis.internal.floats import float_to_int
    from sortedcontainers import SortedSet

    # the recorded pool, built as providers builds its own
    pool = json.loads(pinned(POOL, POOL_SHA256))
    constants = providers.Constants(
        integers=SortedSet(pool["integers"]),
        floats=SortedSet(pool["floats"], key=float_to_int),
        bytes=SortedSet(text.encode("latin-1") for text in pool["bytes"]),
        strings=SortedSet(pool["strings"]),
    )
    providers._get_local_constants = lambda: constants

    # Bounds on a generated document: its loop ticks and its trace samples.
    _MAX_TICKS = 20_000
    _MAX_SAMPLES = 50_000

    # Quote, backslash, control characters, and non-ASCII (BMP and astral); no
    # ',' or line break, which a config name may not hold.
    NAME_CHARS = st.sampled_from(list('"\\\x00\x01\x1f\x7f\t/é€😀ab'))

    @st.composite
    def bounded_documents(draw, own_space=False):
        """A scenario document of at most _MAX_TICKS ticks and _MAX_SAMPLES trace samples.

        Times are drawn in whole microseconds, so each seconds value in the
        document converts back exactly. Some documents hold a total run time
        below one trace step, or a warmup window between two sample instants.
        With `own_space`, each brings its own adaptation space: one to three
        configs, whose names need JSON escaping and whose frame rates may tie.
        """
        runs = draw(st.integers(1, 4))
        step_us = draw(st.sampled_from([1, 1_000, 250_000, 1_000_000, 3_000_000, 60_000_000]))
        interval_us = draw(st.sampled_from(
            [us for us in (1, 1_000, 250_000, 1_000_000, 3_000_000) if runs * us <= _MAX_SAMPLES * step_us]
        ))
        run_limit_us = min(_MAX_TICKS * interval_us, _MAX_SAMPLES * step_us) // runs
        run_us = interval_us * draw(st.integers(1, max(1, run_limit_us // interval_us)))
        total_us = runs * run_us

        def instant(steps):
            """On, or just off, one of the first `steps` sample instants."""
            nudge = draw(st.sampled_from([0, 1, -1, step_us // 2]))
            return max(0, draw(st.integers(0, steps)) * step_us + nudge)

        start_us, end_us = instant(30), instant(60)
        if end_us <= start_us:
            end_us = start_us + draw(st.integers(1, step_us))
        warmup = {"start_s": start_us / 1e6, "end_s": end_us / 1e6}
        warmup["duration_s"] = end_us / 1e6 + draw(st.sampled_from([0.0, 1.0, 1e4]))

        faults = []
        for kind in ("probe-unavailable", "registry-unavailable"):
            cursor = 0
            for _ in range(draw(st.integers(0, 2))):
                start = cursor + draw(st.integers(0, total_us))
                cursor = start + draw(st.integers(1, total_us))
                faults.append({"start_s": start / 1e6, "end_s": cursor / 1e6, "kind": kind})

        names, space = ["LR", "HR"], {}
        if own_space:
            names = draw(st.lists(st.text(NAME_CHARS, min_size=1, max_size=5), min_size=1, max_size=3, unique=True))
            space["adaptation_space"] = [
                {
                    "name": name,
                    "frame_rate": draw(st.sampled_from([1, 30, 60])),
                    "scale_w": 320,
                    "scale_h": 240,
                    "quality_score": draw(st.sampled_from([0.0, 0.2, 0.99, 1.0])),
                }
                for name in names
            ]
        scenario = draw(st.sampled_from(["adaptive", "adaptive", *(f"static-{name}" for name in names)]))
        overrides = []
        if scenario == "adaptive":
            overrides = [
                {"at_s": draw(st.integers(0, total_us)) / 1e6, "target": draw(st.sampled_from(names))}
                for _ in range(draw(st.integers(0, 3)))
            ]
        return {
            "schema_version": 1,
            "scenario": scenario,
            "runs": runs,
            "run_duration_s": run_us / 1e6,
            "monitor_interval_s": interval_us / 1e6,
            "reconfig_delay_s": draw(st.sampled_from([0.0, 1e-6, 0.5, 2.7, 100.0])),
            # amplitudes above the mean clamp the trace to 0 Mbps for part of each period
            "trace": {
                "mean_mbps": draw(st.sampled_from([0.5, 5.0])),
                "amplitude_mbps": draw(st.sampled_from([0.0, 2.0, 8.0])),
                "period_s": draw(st.sampled_from([1e-6, 0.5, 7.0, 61.0])),
                "noise_sd_mbps": draw(st.sampled_from([0.0, 0.3])),
                "step_s": step_us / 1e6,
            },
            "probe_noise_sd_mbps": draw(st.sampled_from([0.0, 0.5])),
            "warmup": warmup,
            "faults": faults,
            **space,
            "hysteresis_mbps": draw(st.sampled_from([0.0, 0.4])),
            "user_overrides": overrides,
            "seed": draw(st.integers(0, 2**31)),
        }

    # spec_corpus_fmean.jsonl: lists of floats in [0, 1], each the per-run tp and qp
    # values of one fold. Long lists are built from a few drawn values, since a draw per
    # element would overrun Hypothesis's buffer; repeats of values near 1 and near 0 stress
    # the rounding.
    _BELOW_ONE = math.nextafter(1.0, 0.0)
    _UNIT = st.one_of(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1e-307),  # subnormals and their neighbours
        st.floats(min_value=0.999, max_value=_BELOW_ONE),
        st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 0.1, 0.5, _BELOW_ONE, 1.0]),
    )
    _LONG = st.builds(
        lambda pattern, length: (pattern * (length // len(pattern) + 1))[:length],
        st.lists(_UNIT, min_size=1, max_size=7),
        st.integers(1_000, 20_000),
    )
    FMEAN_VALUES = st.one_of(st.lists(_UNIT, min_size=1, max_size=300), _LONG)

    def key_paths(node, path=()):
        """Every path to a value inside a JSON document, the root included."""
        yield path
        children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, child in children:
            yield from key_paths(child, path + (key,))

    # spec_corpus_mutations.jsonl: one to three odd values, each put at (or deleting) a path of BASE.
    _ODD_VALUES = st.one_of(
        st.sampled_from([
            DELETE, None, True, False, "", "90", [], [1.0], {}, {"x": 1},
            math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-7, 2e-7, 4e-7, 0, 0.0, -1, -0.5,
        ]),
        st.text(max_size=4),
        st.integers(),
        st.floats(),
    )
    MUTATIONS = st.lists(st.tuples(st.sampled_from(list(key_paths(BASE))), _ODD_VALUES), min_size=1, max_size=3)

    # spec_corpus_stream_ops.jsonl: a switch delay and up to 40 stream operations.
    # A step's dt is k whole delays plus an offset, at least 1 us: offsets of -1, 0 and 1
    # land steps just before, on and just after a switch's deadline.
    STREAM_DELAYS = st.sampled_from((0, 1, DELAY_US))
    _STEP = st.tuples(
        st.just("step"), st.integers(0, 3), st.one_of(st.integers(-1, 1), st.integers(-1, 3_000_000))
    )
    STREAM_OPS = st.lists(
        st.one_of(
            st.tuples(st.just("apply"), st.sampled_from(("LR", "HR", "MR"))),
            _STEP,
            st.just(("finalize",)),
        ),
        max_size=40,
    )

    drawn: list = []
    # each file's draw, given the strategies as the property that first drew it took them
    properties = {
        "bounded": given(bounded_documents(own_space=False))(lambda document: drawn.append(document)),
        "own_space": given(bounded_documents(own_space=True))(lambda document: drawn.append(document)),
        "fmean": given(FMEAN_VALUES)(lambda values: drawn.append(values)),
        "mutations": given(MUTATIONS)(lambda mutations: drawn.append(mutations)),
        "stream_ops": given(delay_us=STREAM_DELAYS, ops=STREAM_OPS)(lambda delay_us, ops: drawn.append((delay_us, ops))),
    }
    for name, draw in properties.items():
        examples, drawn_seed = DRAWS[name]
        drawn.clear()
        draw = settings(max_examples=examples, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])(draw)
        seed(drawn_seed)(draw)()
        encode, path = FORMATS[name][0], path_of(name)
        path.write_bytes("".join(json.dumps(encode(example), separators=(",", ":")) + "\n" for example in drawn).encode("utf-8"))
        print(f"{path.name}: {len(drawn)} examples, sha256 {hashlib.sha256(path.read_bytes()).hexdigest()}")
