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

    with ThreadPoolExecutor(max_workers=max(1, min(n_workers, len(paths)))) as pool:
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

    # each row's cache key, from one hash of each distinct file; a row that
    # reaches an unreadable file gets none and is skipped
    paths = dict.fromkeys(os.path.join(base, rel) for row in rows for rel in row[:2])
    digests = _hash_files(list(paths), n_workers)
    keys = []
    for ref_rel, dist_rel, *_ in rows:
        found = [digests[os.path.join(base, rel)] for rel in (ref_rel, dist_rel)]
        errors = [d for d in found if isinstance(d, OSError)]
        if errors:
            log.warning("skipping unreadable pair (%s, %s): %s", ref_rel, dist_rel, errors[0])
        keys.append(None if errors else ":".join(found + [cfg_digest]))
    cache_hits = sum(key in cache for key in keys)

    # score each uncached key once, one reference at a time in order of
    # first appearance; persist the cache only when a row was scored
    pending = {}  # reference path -> {key: first row with that key}
    for row, key in zip(rows, keys):
        if key is not None and key not in cache:
            pending.setdefault(os.path.join(base, row[0]), {}).setdefault(key, row)
    fresh = {}
    for ref_path, todo in pending.items():
        qs = _score_rows(ref_path, list(todo.values()), base, config, n_workers)
        fresh.update((key, q) for key, q in zip(todo, qs) if q is not None)
    if fresh:
        cache.update(fresh)
        _replace_json(cache_path, cache)

    scored = [(row, float(cache[key])) for row, key in zip(rows, keys) if key in cache]
    if not scored:
        raise ValueError("no manifest row could be scored")
    summary, mapped = _summarize(scored, out_path + ".logistic.json")
    summary.cache_hits, summary.skipped_files = cache_hits, len(rows) - len(scored)
    _write_report(out_path, [(row, q, m) for (row, q), m in zip(scored, mapped)], summary)
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


def _summarize(scored, memo_path):
    """The summary of the (row, q) pairs in ``scored``, and their mapped q."""
    qs = np.array([q for _, q in scored], dtype=np.float64)
    mos = np.array([row[3] for row, _ in scored], dtype=np.float64)
    degenerate = qs.size < 6 or qs.std() == 0.0 or mos.std() == 0.0
    if degenerate:
        mapped = qs.copy()
        global_plcc = global_srocc = global_rmse = float("nan")
    else:
        mapped = _mapped_scores(qs, mos, memo_path)
        global_plcc = plcc(mapped, mos)
        global_srocc = srocc(qs, mos)
        global_rmse = rmse(mapped, mos)
    types = np.array([row[2] for row, _ in scored])
    per_type = {}
    for dtype in sorted(set(types.tolist())):
        gq, gm = qs[types == dtype], mos[types == dtype]
        if gq.size >= 2 and gq.std() > 0.0 and gm.std() > 0.0:
            per_type[dtype] = (srocc(gq, gm), gq.size)
        else:
            per_type[dtype] = (float("nan"), gq.size)
    summary = CorrelationSummary(plcc=global_plcc, srocc=global_srocc, rmse=global_rmse,
                                 n=len(scored), per_type=per_type, degenerate=degenerate)
    return summary, mapped


def _write_report(out_path, lines, summary: CorrelationSummary) -> None:
    """The report CSV: one line per (row, q, mapped q) of ``lines``, then
    the summary."""
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["reference", "distorted", "distortion_type", "mos", "q", "mapped_q"])
        for (reference, distorted, dtype, mos), q, mapped in lines:
            writer.writerow([reference, distorted, dtype,
                             f"{mos:.6f}", f"{q:.12g}", f"{mapped:.12g}"])
        writer.writerow([])
        writer.writerow(["summary_global", "plcc", f"{summary.plcc:.6f}", f"n={summary.n}"])
        writer.writerow(["summary_global", "srocc", f"{summary.srocc:.6f}", f"n={summary.n}"])
        writer.writerow(["summary_global", "rmse", f"{summary.rmse:.6f}", f"n={summary.n}"])
        if summary.degenerate:
            writer.writerow(["summary_global", "degenerate", "zero-variance or too few samples", ""])
        for dtype, (value, count) in summary.per_type.items():
            writer.writerow(["summary_per_type", dtype, f"srocc={value:.6f}", f"n={count}"])
