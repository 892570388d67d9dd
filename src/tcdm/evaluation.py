"""Correlating objective scores with subjective ratings.

Implements the standard evaluation protocol: a 5-parameter logistic maps
raw scores onto the rating scale, then Pearson correlation, Spearman rank
correlation and RMSE summarize agreement. ``run_benchmark`` drives the
whole loop over a manifest of PLY pairs with a content-addressed score
cache and a memo of the logistic fit, so re-runs cost one hash per file.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass

import numpy as np

from .config import MetricConfig
from .metric import prepare_reference, resolve_threads, score_with_reference
from .pointcloud import load_ply

__all__ = [
    "ScoredRecord",
    "LogisticParams",
    "CorrelationSummary",
    "fit_logistic5",
    "logistic5",
    "plcc",
    "srocc",
    "rmse",
    "f_test",
    "run_benchmark",
]

log = logging.getLogger("tcdm")


@dataclass(frozen=True)
class ScoredRecord:
    reference_id: str
    distorted_id: str
    distortion_type: str
    mos: float
    q: float
    mapped_q: float = float("nan")


@dataclass(frozen=True)
class LogisticParams:
    beta1: float
    beta2: float
    beta3: float
    beta4: float
    beta5: float


@dataclass
class CorrelationSummary:
    plcc: float
    srocc: float
    rmse: float
    n: int
    per_type: dict
    degenerate: bool = False
    cache_hits: int = 0
    skipped_files: int = 0


def logistic5(scores, params) -> np.ndarray:
    """The 5-parameter logistic mapping from raw score to rating scale."""
    b1, b2, b3, b4, b5 = np.asarray(params, dtype=np.float64)
    q = np.asarray(scores, dtype=np.float64)
    z = np.clip(b2 * (q - b3), -500.0, 500.0)
    return b1 * (0.5 - 1.0 / (1.0 + np.exp(z))) + b4 * q + b5


def fit_logistic5(scores, mos):
    """Fit the logistic mapping by least squares.

    Starts from the standard initialization (range of the ratings, inverse
    score spread, score mean, zero linear term, rating mean) and refines it
    with a trust-region search, so the fitted residual never exceeds the
    initial one. Returns (params, mapped scores).
    """
    q = np.asarray(scores, dtype=np.float64)
    y = np.asarray(mos, dtype=np.float64)
    if q.shape != y.shape or q.ndim != 1:
        raise ValueError("scores and mos must be 1D with equal length")
    if q.size < 6:
        raise ValueError("logistic fit needs at least 6 samples")
    spread = q.std()
    if spread == 0.0:
        raise ValueError("scores are constant; logistic fit is undefined")
    x0 = np.array([y.max() - y.min(), 1.0 / spread, q.mean(), 0.0, y.mean()])
    from scipy.optimize import least_squares  # imported here, so scoring never loads it
    result = least_squares(lambda b: logistic5(q, b) - y, x0,
                           method="trf", max_nfev=10000, ftol=1e-10, xtol=1e-12, gtol=1e-12)
    params = LogisticParams(*result.x)
    return params, logistic5(q, result.x)


def _check_pair(a, b, min_len=2):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1D with equal length")
    if a.size < min_len:
        raise ValueError(f"need at least {min_len} samples")
    return a, b


def plcc(a, b) -> float:
    """Pearson linear correlation coefficient."""
    a, b = _check_pair(a, b)
    da = a - a.mean()
    db = b - b.mean()
    va = (da * da).sum()
    vb = (db * db).sum()
    if va == 0.0 or vb == 0.0:
        raise ValueError("zero variance input to plcc")
    return float((da * db).sum() / math.sqrt(va * vb))


def srocc(a, b) -> float:
    """Spearman rank correlation: Pearson over average (fractional) ranks,
    ties sharing their mean rank."""
    from scipy.stats import rankdata
    a, b = _check_pair(a, b)
    return plcc(rankdata(a), rankdata(b))


def rmse(a, b) -> float:
    a, b = _check_pair(a, b, min_len=1)
    d = a - b
    return float(math.sqrt((d * d).mean()))


def f_test(residuals_a, residuals_b, significance: float = 0.05) -> int:
    """Left-tailed variance-ratio test.

    Returns 1 when the first residual set has significantly smaller
    variance than the second (model a significantly better), else 0.
    """
    a, b = _check_pair(residuals_a, residuals_b)
    var_a = a.var(ddof=1)
    var_b = b.var(ddof=1)
    if var_a == 0.0 and var_b == 0.0:
        return 0
    if var_b == 0.0:
        raise ValueError("degenerate variance in second residual set")
    from scipy.stats import f as f_distribution
    critical = f_distribution.ppf(significance, a.size - 1, b.size - 1)
    return int(var_a / var_b < critical)


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _hash_files(paths, n_workers: int) -> dict:
    """path -> sha256 hex digest, or the OSError reading it raised, of each
    path, hashed on up to ``n_workers`` threads (hashlib drops the GIL on
    large updates)."""
    def attempt(path):
        try:
            return _sha256_file(path)
        except OSError as exc:
            return exc

    workers = min(n_workers, len(paths))
    if workers <= 1:
        return dict(zip(paths, map(attempt, paths)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return dict(zip(paths, pool.map(attempt, paths)))


def _config_digest(config: MetricConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _read_manifest(manifest_path):
    rows = []
    with open(manifest_path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"reference", "distorted", "distortion_type", "mos"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(
                f"manifest must have header reference,distorted,distortion_type,mos; "
                f"got {reader.fieldnames}")
        for row in reader:
            try:
                mos = float(row["mos"])
            except (TypeError, ValueError):
                mos = math.nan
            if not math.isfinite(mos):
                raise ValueError(f"{manifest_path}: line {reader.line_num}: mos must be "
                                 f"a finite number, got {row['mos']!r}")
            rows.append((row["reference"], row["distorted"], row["distortion_type"], mos))
    if not rows:
        raise ValueError(f"manifest {manifest_path} has no data rows")
    return rows


def run_benchmark(manifest_path, config: MetricConfig | None = None,
                  out_path=None, threads: int | None = None) -> CorrelationSummary:
    """Score every manifest row, correlate against MOS, write a CSV report.

    Manifest paths are relative to the manifest file. Scores are cached in
    a JSON file next to the report keyed by (reference content, distorted
    content, config) hashes. Each distinct file is hashed once per run, on
    the run's ``threads`` workers, so a re-run of unchanged rows costs one
    hash per file. The cache is replaced atomically, so a crash while
    writing it keeps the old one, and it is not rewritten when no row was
    scored. The logistic fit is memoized beside the report and reused
    while its scores and ratings are unchanged. Unreadable rows are
    skipped with a logged count.
    """
    config = config or MetricConfig()
    n_workers = resolve_threads(threads)
    manifest_path = os.fspath(manifest_path)
    out_path = os.fspath(out_path) if out_path is not None else manifest_path + ".report.csv"
    cache_path = out_path + ".scores.json"
    base = os.path.dirname(os.path.abspath(manifest_path))
    rows = _read_manifest(manifest_path)
    # before any hashing or scoring, which a report it cannot write would lose
    report_dir = os.path.dirname(out_path) or "."
    if not os.path.isdir(report_dir):
        raise ValueError(f"report directory {report_dir!r} does not exist")

    cache = {}
    if os.path.exists(cache_path):
        try:
            with open(cache_path) as fh:
                cache = json.load(fh)
            if not isinstance(cache, dict) or any(type(q) not in (int, float)
                                                  for q in cache.values()):
                raise ValueError("not a JSON object of numbers")
        except (OSError, ValueError):
            log.warning("ignoring unreadable score cache %s", cache_path)
            cache = {}
    cfg_digest = _config_digest(config)

    # pass 1: hash each distinct file, resolve cache hits, collect rows
    # still to score; a row that reaches an unreadable file is skipped
    paths = dict.fromkeys(os.path.join(base, rel) for row in rows for rel in row[:2])
    digests = _hash_files(list(paths), n_workers)

    def digest(rel):
        found = digests[os.path.join(base, rel)]
        if isinstance(found, OSError):
            raise found
        return found

    keyed = []  # (row, key or None, q or None)
    pending = {}  # reference path -> positions in keyed of its rows to score
    cache_hits = 0
    skipped = 0
    for row in rows:
        ref_rel, dist_rel = row[0], row[1]
        try:
            key = f"{digest(ref_rel)}:{digest(dist_rel)}:{cfg_digest}"
        except OSError as exc:
            log.warning("skipping unreadable pair (%s, %s): %s", ref_rel, dist_rel, exc)
            skipped += 1
            continue
        if key in cache:
            cache_hits += 1
            keyed.append((row, key, float(cache[key])))
        else:
            pending.setdefault(os.path.join(base, ref_rel), []).append(len(keyed))
            keyed.append((row, key, None))

    # pass 2: one reference at a time, in order of first appearance; each
    # q lands in its row's manifest slot
    scored = 0
    for ref_path, ids in pending.items():
        qs = _score_rows(ref_path, [keyed[i][0] for i in ids], base, config, n_workers)
        for i, q in zip(ids, qs):
            if q is None:
                skipped += 1
            else:
                row, key, _ = keyed[i]
                keyed[i] = (row, key, q)
                cache[key] = q
                scored += 1

    # pass 3: persist a changed cache, summarize in manifest order
    records = [ScoredRecord(row[0], row[1], row[2], row[3], q)
               for row, _, q in keyed if q is not None]

    if scored:
        _replace_json(cache_path, cache)
    if not records:
        raise ValueError("no manifest row could be scored")

    summary, records = _summarize(records, out_path + ".logistic.json")
    summary.cache_hits = cache_hits
    summary.skipped_files = skipped
    _write_report(out_path, records, summary)
    return summary


def _score_rows(ref_path, rows, base, config: MetricConfig, n_workers: int) -> list:
    """q of each row against the reference at ``ref_path``, None where a
    file cannot be scored. Rows score one at a time, each on ``n_workers``
    patch-group workers; the prepared state lives only for this call."""
    try:
        state = prepare_reference(load_ply(ref_path), config, threads=n_workers)
    except (OSError, ValueError) as exc:
        log.warning("cannot prepare reference %s: %s", rows[0][0], exc)
        return [None] * len(rows)

    qs = []
    for row in rows:
        try:
            qs.append(score_with_reference(state, load_ply(os.path.join(base, row[1])),
                                           threads=n_workers).q)
        except (OSError, ValueError) as exc:
            log.warning("skipping pair (%s, %s): %s", row[0], row[1], exc)
            qs.append(None)
    return qs


def _replace_json(path, obj) -> None:
    """Write ``obj`` to a temp file beside ``path``, then swap it in."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(obj, fh, indent=0, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _mapped_scores(qs, mos, memo_path) -> np.ndarray:
    """``qs`` through the logistic fitted to ``mos``. The fit is memoized
    at ``memo_path`` under a digest of its inputs and reused while they
    match; JSON round-trips floats exactly, so a reused fit maps every
    score to the same bits. A memo that is missing, unreadable or made
    from other inputs means a refit."""
    inputs = hashlib.sha256(qs.tobytes() + mos.tobytes()).hexdigest()
    try:
        with open(memo_path) as fh:
            memo = json.load(fh)
    except (OSError, ValueError):
        memo = None
    if isinstance(memo, dict) and memo.get("inputs") == inputs:
        params = memo.get("params")
        if (isinstance(params, list) and len(params) == 5
                and all(type(b) is float for b in params)):
            return logistic5(qs, params)
    params, mapped = fit_logistic5(qs, mos)
    _replace_json(memo_path, {"inputs": inputs, "params": [float(b) for b in astuple(params)]})
    return mapped


def _summarize(records, memo_path):
    qs = np.array([r.q for r in records], dtype=np.float64)
    mos = np.array([r.mos for r in records], dtype=np.float64)
    degenerate = qs.size < 6 or qs.std() == 0.0 or mos.std() == 0.0
    if degenerate:
        mapped = qs.copy()
        global_plcc = global_srocc = global_rmse = float("nan")
    else:
        mapped = _mapped_scores(qs, mos, memo_path)
        global_plcc = plcc(mapped, mos)
        global_srocc = srocc(qs, mos)
        global_rmse = rmse(mapped, mos)
    records = [ScoredRecord(r.reference_id, r.distorted_id, r.distortion_type,
                            r.mos, r.q, float(m)) for r, m in zip(records, mapped)]
    per_type = {}
    for dtype in sorted({r.distortion_type for r in records}):
        group = [r for r in records if r.distortion_type == dtype]
        gq = np.array([r.q for r in group])
        gm = np.array([r.mos for r in group])
        if gq.size >= 2 and gq.std() > 0.0 and gm.std() > 0.0:
            per_type[dtype] = (srocc(gq, gm), gq.size)
        else:
            per_type[dtype] = (float("nan"), gq.size)
    summary = CorrelationSummary(plcc=global_plcc, srocc=global_srocc, rmse=global_rmse,
                                 n=len(records), per_type=per_type, degenerate=degenerate)
    return summary, records


def _write_report(out_path, records, summary: CorrelationSummary) -> None:
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["reference", "distorted", "distortion_type", "mos", "q", "mapped_q"])
        for r in records:
            writer.writerow([r.reference_id, r.distorted_id, r.distortion_type,
                             f"{r.mos:.6f}", f"{r.q:.12g}", f"{r.mapped_q:.12g}"])
        writer.writerow([])
        writer.writerow(["summary_global", "plcc", f"{summary.plcc:.6f}", f"n={summary.n}"])
        writer.writerow(["summary_global", "srocc", f"{summary.srocc:.6f}", f"n={summary.n}"])
        writer.writerow(["summary_global", "rmse", f"{summary.rmse:.6f}", f"n={summary.n}"])
        if summary.degenerate:
            writer.writerow(["summary_global", "degenerate", "zero-variance or too few samples", ""])
        for dtype, (value, count) in summary.per_type.items():
            writer.writerow(["summary_per_type", dtype, f"srocc={value:.6f}", f"n={count}"])
