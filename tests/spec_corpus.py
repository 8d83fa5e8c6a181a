"""The recorded test inputs: examples drawn once from conftest's strategies, one compact JSON example
a line, each file pinned in DIGESTS. The spec documents feed `check_document`; the fmean lists, the
document mutations and the stream op sequences feed spec_check's three property checks. Run as a
script, it redraws every file with DRAWS: each one's example count and seed, the sha384 digest
Hypothesis took of the property that first drew it, which seeded that property's fixed draws. A
redraw is a deliberate re-pin."""

import hashlib
import json
import sys
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

# The value of a mutation that deletes its path (the root's included, which leaves no document);
# a mutation line stores it as a path with no value.
DELETE = object()


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


def read(name: str):
    """Each (`file:line`, example) of file `name`, once the file matches its pinned sha256."""
    path, decode = path_of(name), FORMATS[name][1]
    if hashlib.sha256(data := path.read_bytes()).hexdigest() != DIGESTS[name]:
        raise ValueError(f"{path.name} does not match its pinned sha256; redraw it with tests/spec_corpus.py")
    for number, line in enumerate(data.decode("utf-8").splitlines(), 1):
        yield f"{path.name}:{number}", decode(json.loads(line))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from hypothesis import HealthCheck, given, seed, settings
    from conftest import FMEAN_VALUES, MUTATIONS, STREAM_DELAYS, STREAM_OPS, bounded_documents

    # the importable module, whose DELETE conftest's strategies draw, not this __main__ copy
    from spec_corpus import FORMATS, path_of

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
