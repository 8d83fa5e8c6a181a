"""The spec corpus: documents drawn once from conftest's `bounded_documents()`, one compact JSON
document a line, each file pinned in DIGESTS. Run as a script, it redraws both files with DRAWS:
each one's own-space flag, example count and seed, the sha384 digest Hypothesis took of the
derandomized property that drew it. A redraw is a deliberate re-pin."""

import hashlib
import json
import sys
from pathlib import Path

DRAWS = {
    "bounded": (False, 150, 0x6E7DB4FBDACC4679931699107EA1F5C3ACA96618E37ABB11B326DF11B576BE0990FC832A628DCF9096EF58530327E0F7),
    "own_space": (True, 50, 0x5B0292AEC00AE0E98FA325E04674831F0033AB75BC4CC8F08700B2F15AC584F272A18649A5C22098352020D64276320D),
}
DIGESTS = {
    "bounded": "7847ca59170c8d2d008454c9d91300b2b6198957607561a96fb9a9cf4ca472ee",
    "own_space": "54586554e8c20869e5934e715e0a930564a2e86d5a30863381addc68389d0b68",
}


def read(name: str):
    """Each (`file:line`, document) of corpus `name`, once the file matches its pinned sha256."""
    path = Path(__file__).with_name(f"spec_corpus_{name}.jsonl")
    if hashlib.sha256(data := path.read_bytes()).hexdigest() != DIGESTS[name]:
        raise ValueError(f"{path.name} does not match its pinned sha256; redraw it with tests/spec_corpus.py")
    for number, line in enumerate(data.decode("utf-8").splitlines(), 1):
        yield f"{path.name}:{number}", json.loads(line)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from hypothesis import HealthCheck, given, seed, settings
    from conftest import bounded_documents

    for name, (own_space, examples, drawn_seed) in DRAWS.items():
        drawn, path = [], Path(__file__).with_name(f"spec_corpus_{name}.jsonl")
        draw = given(bounded_documents(own_space=own_space))(lambda document: drawn.append(document))
        draw = settings(max_examples=examples, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])(draw)
        seed(drawn_seed)(draw)()
        path.write_bytes("".join(json.dumps(document, separators=(",", ":")) + "\n" for document in drawn).encode("utf-8"))
        print(f"{path.name}: {len(drawn)} documents, sha256 {hashlib.sha256(path.read_bytes()).hexdigest()}")
