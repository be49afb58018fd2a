"""The five preset audits write what the golden manifest pins (see
golden.py), so a change that moves one of those outputs fails here even
when every acceptance band still holds."""

import time

import golden


def test_preset_audits_match_the_golden_manifest(tmp_path):
    t0 = time.perf_counter()
    got = golden.build(tmp_path)
    elapsed = time.perf_counter() - t0
    want = golden.load()
    assert got.keys() == want.keys()
    changed = sorted(k for k in want if got[k] != want[k])
    assert changed == [], changed
    corpora = sum(k.endswith("/corpus") for k in want)
    print(f"GOLDEN (preset audits): PASS; {len(want)} digests of "
          f"{corpora} corpora and their audits equal the manifest "
          f"({elapsed:.1f}s)")
