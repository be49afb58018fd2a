"""The five preset audits and one clicks-only audit write what the
golden manifest pins (see golden.py), so a change that moves one of
those outputs fails here even when every acceptance band still holds."""

import time

import golden


def test_preset_audits_match_the_golden_manifest(tmp_path):
    t0 = time.perf_counter()
    got, scales = golden.build(tmp_path)
    elapsed = time.perf_counter() - t0
    want = golden.load()
    assert got.keys() == want.keys()
    # digests and failed runs exactly, deltas within FIT_BITS of their fit
    changed = sorted(k for k in want if k not in scales and got[k] != want[k])
    assert changed == [], changed
    gaps = {k: abs(got[k] - want[k]) / scales[k] for k in scales}
    worst = max(gaps, key=gaps.get)
    assert gaps[worst] <= 2.0 ** -golden.FIT_BITS, (worst, got[worst],
                                                    want[worst])
    failed = [k for k in want if k.endswith("/matched")]
    assert failed and all(
        want[k][0] == 2 and want[k][1].count("\n") == 1 for k in failed)
    corpora = sum(k.endswith("/corpus") for k in want)
    pairs = sum(k.endswith(("/summary.pairwise", "/summary.external"))
                for k in want)
    digests = len(want) - len(scales) - len(failed) - pairs
    print(f"GOLDEN (preset audits): PASS; {digests} digests of {corpora} "
          f"corpora and their audits and {pairs} pair-stage blocks equal "
          f"the manifest, {len(failed)} "
          f"matched audits end in exit 2 with the pinned line, "
          f"{len(scales)} multilevel deltas agree with it to "
          f"{gaps[worst]:.2g} of their fit's largest coefficient "
          f"({elapsed:.1f}s)")
