"""Telemetry schema-conformance rules: SCH001 / SCH002.

The measurement pipeline's layers communicate through flat
``name=value`` log strings (Section V.A): reports serialize in
``telemetry/reports.py``, the log server ingests, and every figure is
reconstructed by the folds in ``analysis/streaming.py``.  A field-name
drift between producer and consumer does not crash -- the fold quietly
reads nothing and the reproduced figure is silently wrong.  These rules
check the contract statically from the harvested fact tables:

* **SCH001** (error): a consumer reads a field no producer emits --
  a fold reading an unknown report attribute, a fold reading a
  dataclass field whose wire key nothing writes, or ``from_params``
  reading a wire key nothing writes.  Report classes declare their
  wire schema once, in a ``WIRE`` table the shared codec derives
  every encoder and decoder from, so a class's encoders cannot drift
  apart from each other.
* **SCH002** (warn): the converse -- an emitted wire key nothing ever
  reads back.  Dead fields are wasted log-server load (the paper's
  partner reports exist precisely to cut that load), but they corrupt
  nothing, hence warn severity.

Each check is guarded on its fact table being non-empty, so checking a
lone consumer file (no report classes in view) never mass-fires.
"""

from __future__ import annotations

from typing import Iterator

from repro.check.engine import Finding, Rule, register
from repro.check.project import ProjectContext

__all__ = ["SchemaReadWithoutWriter", "SchemaWriteWithoutReader"]


@register
class SchemaReadWithoutWriter(Rule):
    """SCH001: telemetry field read that no report emits."""

    id = "SCH001"
    title = "telemetry field read but never emitted"
    rationale = ("a fold or from_params reading a field no report "
                 "writes silently reconstructs figures from nothing -- "
                 "schema drift corrupts results without crashing")
    project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        # fold attribute reads vs the report attribute universe
        if project.report_attrs:
            for facts in project.files:
                for cls, attr, line, col in facts.fold_reads:
                    if attr not in project.report_attrs:
                        yield self.project_finding(
                            facts.path, line, col,
                            f"fold {cls} reads report.{attr}, which no "
                            "report class defines")
                    else:
                        keys = project.field_keys.get(attr)
                        if keys and not (keys & project.emitted_keys):
                            wire = ", ".join(sorted(keys))
                            yield self.project_finding(
                                facts.path, line, col,
                                f"fold {cls} reads report.{attr} (wire "
                                f"field {wire}), which no report emits")
        # from_params reads vs the emitted wire-key universe
        if project.emitted_keys:
            for facts in project.files:
                reads = dict(facts.global_param_reads)
                for rc in facts.report_classes.values():
                    reads.update(rc.param_reads)
                for key, (line, col) in sorted(reads.items()):
                    if key not in project.emitted_keys:
                        yield self.project_finding(
                            facts.path, line, col,
                            f"wire field {key!r} is parsed but no "
                            "report ever emits it")


@register
class SchemaWriteWithoutReader(Rule):
    """SCH002 (warn): emitted telemetry field nothing consumes."""

    id = "SCH002"
    title = "telemetry field emitted but never consumed"
    severity = "warn"
    rationale = ("dead wire fields are pure log-server load -- the "
                 "paper batches partner reports precisely to cut that "
                 "load; warn-level because nothing is corrupted")
    project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        if not project.read_keys:
            return  # no consumer in view: nothing to compare against
        for facts in project.files:
            for cls, rc in sorted(facts.report_classes.items()):
                for key, (line, col) in sorted(rc.param_writes.items()):
                    if key not in project.read_keys:
                        yield self.project_finding(
                            facts.path, line, col,
                            f"{cls} emits wire field {key!r} but "
                            "nothing ever reads it back")
