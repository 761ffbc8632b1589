"""Pretty-printing for saved profiles and metrics — ``symsim report``.

``symsim run ... --profile-out p.json`` (or ``--metrics-out m.json``)
persists a run's telemetry; ``symsim report p.json`` renders it for a
terminal.  The renderer sniffs the schema field, so one subcommand
covers both document kinds (and the trace JSONL header, for which it
prints summary statistics rather than the full stream).
"""

from __future__ import annotations

import json
from typing import List, Optional

from repro.obs import metrics as _metrics
from repro.obs import profiler as _profiler


def load_document(path: str) -> dict:
    """Load a saved observability document, sniffing its schema.

    Raises ``OSError`` for unreadable files and ``ValueError`` for
    files that are empty, malformed, or not observability documents —
    the CLI folds both into one clear one-line message (never a
    traceback).
    """
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.read(1)
        handle.seek(0)
        if not first:
            raise ValueError("file is empty")
        if first == "{":
            try:
                document = json.load(handle)
            except json.JSONDecodeError:
                handle.seek(0)
            else:
                if not isinstance(document, dict):
                    raise ValueError(
                        "not an observability document (top-level JSON "
                        f"is {type(document).__name__}, expected object)")
                return document
        elif first == "[":
            raise ValueError(
                "not an observability document (top-level JSON is a "
                "list, expected object)")
        # JSONL trace stream: summarize into a synthetic document
        try:
            records = [json.loads(line) for line in handle if line.strip()]
        except json.JSONDecodeError as exc:
            raise ValueError(f"neither JSON nor JSONL: {exc}") from exc
    if not all(isinstance(record, dict) for record in records):
        raise ValueError("JSONL stream contains non-object records")
    return {"schema": "jsonl-trace", "records": records}


def format_report(document: dict, top: int = 10) -> str:
    schema = document.get("schema", "")
    if schema == _profiler.SCHEMA:
        return format_profile(document, top=top)
    if schema == _metrics.SCHEMA:
        return format_metrics(document)
    if schema == "jsonl-trace" or "records" in document:
        return format_trace_summary(document)
    if "traceEvents" in document:
        return format_trace_summary(
            {"records": [{"ev": e.get("ph"), "name": e.get("name"),
                          "cat": e.get("cat")}
                         for e in document["traceEvents"]]})
    if schema == "repro.mutate.report/1":
        return format_mutation_report(document)
    raise ValueError(f"unrecognized observability document "
                     f"(schema={schema!r})")


# ---------------------------------------------------------------------
# mutation campaign report
# ---------------------------------------------------------------------

def format_mutation_report(document: dict) -> str:
    """Render a ``repro.mutate.report/1`` campaign summary."""
    totals = document.get("totals", {})
    score = document.get("score")
    lines: List[str] = []
    lines.append(f"=== mutation campaign — top {document.get('top')} ===")
    lines.append(
        f"operators: {', '.join(document.get('operators', []))} | "
        f"modules: {', '.join(document.get('target_modules', []))} | "
        f"seed {document.get('seed')}")
    planned = totals.get("planned", 0)
    lines.append(
        f"sites: {totals.get('sites', 0)} enumerated, {planned} planned"
        + (" (max_mutants cap)" if planned < totals.get("sites", 0)
           else ""))
    score_text = f"{score:.3f}" if score is not None else "n/a"
    lines.append(
        f"score: {score_text}  "
        f"(detected {totals.get('detected', 0)} / undetected "
        f"{totals.get('undetected', 0)} / aborted "
        f"{totals.get('aborted', 0)} / invalid "
        f"{totals.get('invalid', 0)})")
    by_operator = document.get("by_operator", {})
    if by_operator:
        lines.append(f"{'operator':<10s} {'planned':>8s} {'detect':>7s} "
                     f"{'survive':>8s} {'abort':>6s} {'invalid':>8s} "
                     f"{'score':>7s}")
        for name, row in by_operator.items():
            op_planned = sum(row.get(k, 0) for k in
                             ("detected", "undetected", "aborted",
                              "invalid"))
            op_score = row.get("score")
            op_score_text = f"{op_score:7.3f}" if op_score is not None \
                else f"{'n/a':>7s}"
            lines.append(
                f"{name:<10s} {op_planned:8d} {row.get('detected', 0):7d} "
                f"{row.get('undetected', 0):8d} {row.get('aborted', 0):6d} "
                f"{row.get('invalid', 0):8d} {op_score_text}")
    variants = document.get("variants", [])
    if variants:
        lines.append("explicit variants:")
        for variant in variants:
            verified = variant.get("witness_verified")
            note = ""
            if variant.get("witness"):
                note = " — witness" + {
                    True: " verified", False: " NOT REPRODUCED",
                    None: "",
                }[verified]
            lines.append(f"  {variant['id']:<28s} "
                         f"{variant['classification']}{note}")
    survivors = document.get("survivors", [])
    if survivors:
        lines.append(f"surviving mutants ({len(survivors)} — possibly "
                     "equivalent, see docs/MUTATION.md):")
        for mutant in survivors:
            lines.append(
                f"  {mutant['id']:<28s} {mutant['module']}:"
                f"{mutant['line']}  {mutant['description']}")
    else:
        lines.append("surviving mutants: none")
    return "\n".join(lines)


# ---------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------

def format_profile(document: dict, top: int = 10,
                   by: str = "cpu_seconds") -> str:
    meta = document.get("meta", {})
    totals = document.get("totals", {})
    sites = document.get("sites", [])
    ranked = sorted(sites, key=lambda s: s.get(by, 0), reverse=True)[:top]
    lines: List[str] = []
    title = meta.get("design") or meta.get("source") or "run"
    lines.append(f"=== hot-spot profile — {title} ===")
    if meta:
        bits = []
        if "sim_time" in meta:
            bits.append(f"sim time {meta['sim_time']}")
        if "events_processed" in meta:
            bits.append(f"{meta['events_processed']} events")
        if "cpu_seconds" in meta:
            bits.append(f"{meta['cpu_seconds']:.3f}s cpu")
        if bits:
            lines.append("run: " + ", ".join(bits))
        if "bdd_kernel" in meta:
            lines.append(f"bdd kernel: {meta['bdd_kernel']}")
    lines.append(
        f"top {len(ranked)} event sites by {by} "
        f"(of {len(sites)} sites):"
    )
    lines.append(f"{'#':>3s} {'site':<40s} {'kind':<7s} {'pops':>8s} "
                 f"{'merges':>8s} {'cpu(ms)':>9s} {'bdd-nodes':>10s}")
    for rank, site in enumerate(ranked, 1):
        lines.append(
            f"{rank:3d} {site['label']:<40.40s} {site['kind']:<7s} "
            f"{site['pops']:8d} {site['merges']:8d} "
            f"{site['cpu_seconds'] * 1e3:9.2f} {site['bdd_nodes']:10d}"
        )
    if totals:
        lines.append(
            f"totals: {totals.get('pops', 0)} pops, "
            f"{totals.get('merges', 0)} merges, "
            f"{totals.get('cpu_seconds', 0.0):.3f}s cpu, "
            f"{totals.get('bdd_nodes', 0)} bdd nodes created"
        )
    bdd = document.get("bdd") or {}
    if bdd:
        lines.append(_format_bdd_line(bdd))
    ctier = document.get("compile") or {}
    if ctier:
        lines.append(_format_compile_line(ctier))
    return "\n".join(lines)


def _format_compile_line(ctier: dict) -> str:
    hits = ctier.get("tier_hits", 0)
    misses = ctier.get("tier_misses", 0)
    total = hits + misses
    rate = f"{100.0 * hits / total:.1f}%" if total else "n/a"
    return (
        f"compile: {ctier.get('blocks', 0)} blocks "
        f"({ctier.get('reused', 0)} reused) covering "
        f"{ctier.get('fused_instructions', 0)} instructions, "
        f"fast-path hit-rate {rate} ({hits}/{total}), "
        f"build {ctier.get('build_seconds', 0.0):.3f}s"
    )


def _format_bdd_line(bdd: dict) -> str:
    ite_h, ite_m = bdd.get("ite_hits", 0), bdd.get("ite_misses", 0)
    not_h, not_m = bdd.get("not_hits", 0), bdd.get("not_misses", 0)
    apply_h = bdd.get("apply_hits", 0)
    apply_m = bdd.get("apply_misses", 0)

    def rate(hits: int, misses: int) -> str:
        total = hits + misses
        return f"{100.0 * hits / total:.1f}%" if total else "n/a"

    line = (
        f"bdd: ite-cache hit-rate {rate(ite_h, ite_m)} "
        f"({ite_h}/{ite_h + ite_m}), apply-cache {rate(apply_h, apply_m)}, "
        f"not-cache {rate(not_h, not_m)}, "
        f"nodes={bdd.get('nodes', 0)} (peak {bdd.get('peak_nodes', 0)}), "
        f"vars={bdd.get('var_count', 0)}"
    )
    fp_word = bdd.get("fastpath_word_ops", 0)
    fp_sym = bdd.get("fastpath_symbolic_ops", 0)
    if fp_word or fp_sym:
        total = fp_word + fp_sym
        ratio = f"{100.0 * fp_word / total:.1f}%" if total else "n/a"
        line += (
            f"\nfastpath: {fp_word} word-level ops ({ratio} concrete), "
            f"{fp_sym} symbolic fallbacks"
        )
    return line


# ---------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------

def format_metrics(document: dict) -> str:
    lines = ["=== metrics snapshot ==="]
    for metric in document.get("metrics", []):
        labels = metric.get("labels") or {}
        label_text = ("{" + ", ".join(f"{k}={v}"
                                      for k, v in sorted(labels.items()))
                      + "}") if labels else ""
        name = f"{metric['name']}{label_text}"
        value = metric["value"]
        kind = metric["type"]
        if kind in ("counter", "gauge"):
            lines.append(f"{name:<48s} {kind:<9s} {value:g}")
        elif kind == "histogram":
            lines.append(
                f"{name:<48s} histogram count={value['count']} "
                f"mean={value['mean']:.3g} min={value['min']} "
                f"max={value['max']}"
            )
        elif kind == "series":
            tail = value[-1] if value else None
            lines.append(
                f"{name:<48s} series    {len(value)} samples"
                + (f", last=({tail[0]:g}, {tail[1]:g})" if tail else "")
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------
# trace summary
# ---------------------------------------------------------------------

def format_trace_summary(document: dict) -> str:
    records = document.get("records", [])
    by_cat: dict = {}
    for record in records:
        key = (record.get("cat", "?"), record.get("ev", record.get("ph", "?")))
        by_cat[key] = by_cat.get(key, 0) + 1
    lines = [f"=== trace summary — {len(records)} records ==="]
    for (cat, ev), count in sorted(by_cat.items()):
        lines.append(f"{cat:<12s} {ev:<9s} {count:8d}")
    return "\n".join(lines)


def render_file(path: str, top: int = 10) -> str:
    """Load + format in one call (the ``symsim report`` entry point)."""
    return format_report(load_document(path), top=top)
