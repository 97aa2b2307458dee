"""Span tracing for the benchmark's traced run.

The tracer wraps the autobva functions that callers look up at call time
(module globals and class attributes) and restores them afterwards, so the
program itself carries no tracing code.  Each wrapped call records a span:
name, start, end, parent span and the trace id of the benchmark pass it
belongs to.  Spans stay in compact in-memory arrays until the run ends;
self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import dataclasses
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import autobva.cli as cli
import autobva.detection as detection
import autobva.summarization as summarization
import autobva.suts as suts
from autobva.distances import OutputDistance

from checks import is_harness_failure

VALIDITY_GROUPS = ("VV", "VE", "EE")


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.trace = array("H")
        self.trace_id = 0
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.seen: dict = {}      # SUT -> inputs executed in the current detect run
        self.groups: list = []    # one dict per clustered validity group
        self.written: list = []   # paths handed to the archive and report writers

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result)`` runs
        once the span has closed."""
        nid = self.name_id(name)
        names, parents, starts, ends, traces = (self.name, self.parent, self.start,
                                                self.end, self.trace)
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            traces.append(self.trace_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[index] = t0
                ends[index] = t1
            if after is not None:
                after(args, result)
            return result

        return traced

    def count(self, name: str, fn):
        """``fn`` counting its calls without a span."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- hooks -------------------------------------------------------------

    def _sut_hook(self, sut_name: str):
        seen = self.seen.setdefault(sut_name, set())
        counts = self.counts

        def after(args, outcome):
            inputs = args[0]
            key = (inputs, tuple(v.__class__ for v in inputs))  # True != 1 here
            counts[f"calls.{sut_name}"] += 1
            if key in seen:
                counts[f"repeats.{sut_name}"] += 1
            else:
                seen.add(key)

        return after

    def _execute_hook(self, args, outcome):
        if is_harness_failure(outcome.text):
            self.counts["harness_failures"] += 1

    def _archive_add_hook(self, args, fresh):
        self.counts["archive_fresh"] += bool(fresh)

    def _diversity_hook(self, args, result):
        group, (subset, dropped) = args[0], result
        self.groups.append({"validity": group[0].validity,
                            "subset": len(subset), "dropped": len(dropped)})

    def _written_hook(self, args, result):
        self.written.append(args[0])

    # -- instrumentation ---------------------------------------------------

    @contextmanager
    def instrumented(self):
        """Wrap every traced layer for the duration of the block."""
        saved = []

        def patch(owner, attr, replacement):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

        def span(owner, attr, name, after=None):
            patch(owner, attr, self.wrap(name, getattr(owner, attr), after))

        original_detect = cli.detect

        def detect_run(*args, **kwargs):
            for seen in self.seen.values():
                seen.clear()
            return original_detect(*args, **kwargs)

        patch(cli, "detect", self.wrap("detection.detect", detect_run))
        span(cli, "summarize", "summarization.summarize")
        span(cli, "load_archives", "archive_io.load")
        for writer in ("write_archive_csv", "write_archive_json", "write_manifest"):
            span(cli, writer, "archive_io.write_archive", self._written_hook)
        for writer in ("write_report_json", "write_report_markdown"):
            span(cli, writer, "archive_io.write_report", self._written_hook)

        span(detection, "execute", "detection.execute", self._execute_hook)
        span(detection, "sample_arguments", "sampling.sample_arguments")
        span(detection, "pdq", "distances.pdq")
        span(detection, "make_candidate", "detection.make_candidate")
        span(detection, "render_tuple", "values.render_tuple")
        span(detection, "lns_search", "detection.lns_search")
        span(detection, "bcs_search", "detection.bcs_search")
        span(detection.Archive, "add", "detection.archive_add", self._archive_add_hook)
        span(OutputDistance, "__call__", "distances.output_distance")

        span(summarization, "diversity_subset", "summarization.diversity_subset",
             self._diversity_hook)
        span(summarization.FeatureSpace, "__init__", "summarization.feature_space")
        patch(summarization.FeatureSpace, "vector",
              self.count("feature_vector", summarization.FeatureSpace.vector))
        span(summarization, "kmeans", "summarization.kmeans")
        span(summarization, "silhouette", "summarization.silhouette")
        span(summarization, "select_model", "summarization.select_model")

        patch(suts, "BUILTIN_SUTS", {
            name: dataclasses.replace(desc, invoke=self.wrap(
                f"suts.{name}", desc.invoke, self._sut_hook(name)))
            for name, desc in suts.BUILTIN_SUTS.items()})
        make_external = suts.make_external_sut

        def make_external_traced(*args, **kwargs):
            self.counts["make_external"] += 1
            desc = make_external(*args, **kwargs)
            return dataclasses.replace(desc, invoke=self.wrap(
                "suts.external", desc.invoke, self._sut_hook("external")))

        patch(suts, "make_external_sut", make_external_traced)
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def spans(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "trace": np.frombuffer(self.trace, dtype=np.uint16),
        }

    def save(self, path) -> None:
        np.savez(path, **self.spans())

    def layer_metrics(self, passes: int, window: int, report_groups: dict) -> dict:
        """Per-layer metrics, per traced pass (counts repeat exactly per pass).

        ``report_groups`` maps each validity group of the summarize report to
        its (size, cluster count); groups under three candidates skip the
        diversity step and are taken whole.
        """
        s = self.spans()
        name, parent = s["name"].astype(np.int64), s["parent"]
        duration = s["end"] - s["start"]
        child = parent >= 0
        self_time = duration - np.bincount(parent[child], weights=duration[child],
                                           minlength=len(duration))
        width = len(self.names)
        calls = np.bincount(name, minlength=width)
        selfs = np.bincount(name, weights=self_time, minlength=width)
        totals = np.bincount(name, weights=duration, minlength=width)

        def idx(span_name):
            return self._ids.get(span_name)

        def n(span_name):
            i = idx(span_name)
            return int(calls[i]) // passes if i is not None else 0

        def self_s(*span_names):
            return sum(float(selfs[idx(x)]) for x in span_names if idx(x) is not None) / passes

        def total_s(span_name):
            i = idx(span_name)
            return float(totals[i]) / passes if i is not None else 0.0

        def pct(span_name, q, scale):
            i = idx(span_name)
            if i is None or not calls[i]:
                return 0.0
            return float(np.percentile(duration[name == i], q)) * scale

        sut_names = (*suts.BUILTIN_SUTS, "external")
        sut_spans = [f"suts.{x}" for x in sut_names]
        sut_self = self_s(*sut_spans)
        detect_wall = total_s("detection.detect")
        samples = n("sampling.sample_arguments")
        rounds = 0
        if idx("summarization.feature_space") is not None and \
                idx("summarization.diversity_subset") is not None:
            fs_parents = parent[name == idx("summarization.feature_space")]
            rounds = int((name[fs_parents[fs_parents >= 0]] ==
                          idx("summarization.diversity_subset")).sum()) // passes

        def share(a, b):
            return a / b if b else 0.0

        m = {
            "suts.calls": sum(n(x) for x in sut_spans),
            "suts.self_s": sut_self,
            "suts.share": share(sut_self, detect_wall),
            "suts.harness_failures": self.counts["harness_failures"] // passes,
            "suts.external.calls": n("suts.external"),
            "suts.external.call_ms_p50": pct("suts.external", 50, 1e3),
            "suts.external.call_ms_p99": pct("suts.external", 99, 1e3),
            "suts.make_external.calls": self.counts["make_external"] // passes,
            "detection.detect.self_s": self_s("detection.detect"),
            "detection.execute.calls": n("detection.execute"),
            "detection.execute.self_s": self_s("detection.execute"),
            "detection.bcs_search.calls": n("detection.bcs_search"),
            "detection.bcs_search.self_s": self_s("detection.bcs_search"),
            "detection.bcs_search.p50_us": pct("detection.bcs_search", 50, 1e6),
            "detection.bcs_search.p99_us": pct("detection.bcs_search", 99, 1e6),
            "detection.lns_search.calls": n("detection.lns_search"),
            "detection.lns_search.self_s": self_s("detection.lns_search"),
            "detection.make_candidate.self_s": self_s("detection.make_candidate"),
            "detection.execs_per_sample": share(n("detection.execute"), samples),
            "detection.framework_share": share(detect_wall - sut_self, detect_wall),
            "detection.archive_add.calls": n("detection.archive_add"),
            "detection.archive_add.self_s": self_s("detection.archive_add"),
            "detection.archive.fresh_ratio": share(self.counts["archive_fresh"] / passes,
                                                   n("detection.archive_add")),
            "sampling.calls": samples,
            "sampling.self_s": self_s("sampling.sample_arguments"),
            "distances.pdq.calls": n("distances.pdq"),
            "distances.pdq.self_s": self_s("distances.pdq"),
            "distances.output_distance.calls": n("distances.output_distance"),
            "distances.output_distance.self_s": self_s("distances.output_distance"),
            "values.render_tuple.calls": n("values.render_tuple"),
            "values.render_tuple.self_s": self_s("values.render_tuple"),
            "summarization.summarize.self_s": self_s("summarization.summarize"),
            "summarization.diversity_subset.self_s": self_s("summarization.diversity_subset"),
            "summarization.diversity.rounds": rounds,
            "summarization.feature_space.calls": n("summarization.feature_space"),
            "summarization.feature_space.self_s": self_s("summarization.feature_space"),
            "summarization.feature_vector.calls": self.counts["feature_vector"] // passes,
            "summarization.kmeans.calls": n("summarization.kmeans"),
            "summarization.kmeans.self_s": self_s("summarization.kmeans"),
            "summarization.silhouette.self_s": self_s("summarization.silhouette"),
            "summarization.select_model.self_s": self_s("summarization.select_model"),
            "archive_io.load_s": total_s("archive_io.load"),
            "archive_io.write_archive_s": total_s("archive_io.write_archive"),
            "archive_io.write_report_s": total_s("archive_io.write_report"),
            "cli.main.self_s": self_s("cli.main"),
            "trace.self_sum_s": float(self_time.sum()) / passes,
            "trace.spans": len(duration) // passes,
        }
        for sut_name in sut_names:
            m[f"suts.repeat_share.{sut_name}"] = share(
                self.counts[f"repeats.{sut_name}"], self.counts[f"calls.{sut_name}"])
        per_pass = len(self.groups) // passes
        groups = {g["validity"]: g for g in self.groups[:per_pass]}
        for v in VALIDITY_GROUPS:
            size, k = report_groups.get(v, (0, 0))
            g = groups.get(v, {"subset": size, "dropped": 0})
            m[f"summarization.group.{v}.size"] = size
            m[f"summarization.group.{v}.subset"] = g["subset"]
            m[f"summarization.group.{v}.dropped"] = g["dropped"]
            m[f"summarization.group.{v}.k"] = k
            m[f"summarization.group.{v}.size_over_window"] = size / window
        return m
