"""Structured pass/fail reports for verification experiments.

A report carries named metrics plus the thresholds they were judged
against; status is derived, never set by hand, so a report is always
consistent with its own numbers. Thresholds are upper bounds: the report
passes iff metric[key] <= thresholds[key] for every threshold key.
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

from .errors import ConfigError


@dataclass
class ExperimentReport:
    name: str
    status: str
    metrics: dict[str, float]
    thresholds: dict[str, float]
    artifacts: list[str] = field(default_factory=list)
    config_echo: dict = field(default_factory=dict)

    @classmethod
    def build(cls, name, metrics, thresholds, artifacts=None, config_echo=None):
        """Derive status from metrics vs thresholds (metric <= threshold passes)."""
        metrics = {k: float(v) for k, v in metrics.items()}
        thresholds = {k: float(v) for k, v in thresholds.items()}
        check_threshold_names(name, thresholds, metrics)
        ok = all(metrics[k] <= thresholds[k] for k in thresholds)
        return cls(
            name=name,
            status="pass" if ok else "fail",
            metrics=metrics,
            thresholds=thresholds,
            artifacts=list(artifacts or []),
            config_echo=dict(config_echo or {}),
        )

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def failing_metrics(self) -> dict[str, tuple[float, float]]:
        return {
            k: (self.metrics[k], self.thresholds[k])
            for k in self.thresholds
            if self.metrics[k] > self.thresholds[k]
        }

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "metrics": self.metrics,
            "thresholds": self.thresholds,
            "artifacts": self.artifacts,
            "config_echo": self.config_echo,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentReport":
        return cls(
            name=d["name"],
            status=d["status"],
            metrics=dict(d["metrics"]),
            thresholds=dict(d["thresholds"]),
            artifacts=list(d.get("artifacts", [])),
            config_echo=dict(d.get("config_echo", {})),
        )

    def write_json(self, path: str) -> str:
        """Atomic write (temp file + rename) so partial reports never land."""
        return write_json_atomic(path, self.to_dict())


def check_threshold_names(name: str, thresholds, metric_names) -> None:
    """Raise ConfigError for the first threshold that names none of the metrics.

    Experiments call it with the names they will report before doing any
    work, so a misnamed threshold fails before output exists.
    """
    names = list(metric_names)
    missing = [k for k in thresholds or () if k not in names]
    if missing:
        raise ConfigError(f"experiment.thresholds.{missing[0]}",
                          f"no metric of that name; {name} reports {', '.join(names)}")


def write_json_atomic(path: str, payload: dict) -> str:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path
