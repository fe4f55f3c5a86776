"""Crash-safe artifact store with checksummed manifest and quarantine.

Experiment results are only as trustworthy as the bytes on disk.  This
store gives the resilient runner end-to-end custody of its artifacts:

* **atomic writes** — every artifact and the manifest itself go through
  :func:`repro.atomicio.atomic_write_text` (temp file + fsync + rename),
  so a process killed mid-write leaves either the previous complete
  artifact or the new one, never a torn file;
* **integrity manifest** — ``manifest.json`` records a SHA-256 checksum
  and byte count per artifact; every load re-hashes the file and raises
  :class:`ArtifactCorruptError` (a :class:`ValidationError` — never
  retried) on any mismatch, truncation, or undecodable payload;
* **quarantine + repair** — corrupt artifacts are moved (never deleted)
  into ``quarantine/`` and dropped from the manifest, so a subsequent
  ``--resume`` re-runs exactly the affected benchmarks; ``repro doctor
  --repair`` sweeps the whole store, quarantining bad artifacts and
  clearing orphaned temp files from interrupted writes.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..atomicio import TMP_SUFFIX, atomic_write_text, quarantine_file
from .errors import ValidationError

MANIFEST_NAME = "manifest.json"
QUARANTINE_DIR = "quarantine"
MANIFEST_VERSION = 1


class ArtifactCorruptError(ValidationError):
    """An artifact on disk fails its integrity check.

    Carries the offending ``path`` and a machine-checkable ``reason``
    (``missing``, ``truncated``, ``checksum-mismatch``, ``undecodable``,
    ``unregistered``).  Subclasses :class:`ValidationError`, so the
    runner fails the owning unit immediately instead of retrying.
    """

    def __init__(self, path: Union[str, Path], reason: str, detail: str = ""):
        self.path = Path(path)
        self.reason = reason
        message = f"artifact {self.path} is corrupt ({reason})"
        if detail:
            message += f": {detail}"
        super().__init__(message)


@dataclass
class RepairReport:
    """What a store sweep found and did."""

    checked: int = 0
    quarantined: List[str] = field(default_factory=list)
    orphans_removed: List[str] = field(default_factory=list)
    manifest_rebuilt: bool = False

    @property
    def clean(self) -> bool:
        return not (self.quarantined or self.orphans_removed or self.manifest_rebuilt)

    def render(self) -> str:
        lines = [f"artifacts checked: {self.checked}"]
        if self.manifest_rebuilt:
            lines.append("manifest was unreadable — quarantined and rebuilt")
        for key in self.quarantined:
            lines.append(f"quarantined corrupt artifact: {key}")
        for name in self.orphans_removed:
            lines.append(f"removed orphaned temp file: {name}")
        if self.clean:
            lines.append("store is healthy — nothing to repair")
        return "\n".join(lines)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sanitize(key: str) -> str:
    """A filesystem-safe, collision-resistant filename stem for ``key``."""
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", key).strip("._") or "artifact"
    if safe != key:
        safe = f"{safe}-{_sha256(key)[:8]}"
    return safe


class ArtifactStore:
    """A directory of checksummed JSON artifacts keyed by string names."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir = self.root / QUARANTINE_DIR
        self._manifest_corrupt = False
        self._manifest = self._read_manifest()

    # -- manifest ------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def _read_manifest(self) -> Dict[str, Dict[str, Any]]:
        path = self.manifest_path
        if not path.exists():
            return {}
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            artifacts = data["artifacts"]
            if not isinstance(artifacts, dict):
                raise TypeError("artifacts is not a mapping")
            return artifacts
        except (json.JSONDecodeError, KeyError, TypeError, UnicodeDecodeError):
            # A torn manifest must not brick the store: remember it was
            # bad (repair() quarantines it) and treat every artifact as
            # unregistered until re-put.
            self._manifest_corrupt = True
            return {}

    def _write_manifest(self) -> None:
        atomic_write_text(
            self.manifest_path,
            json.dumps(
                {"version": MANIFEST_VERSION, "artifacts": self._manifest},
                indent=2,
                sort_keys=True,
            ),
        )

    # -- primitives ----------------------------------------------------
    def path_for(self, key: str) -> Path:
        entry = self._manifest.get(key)
        if entry is not None:
            return self.root / entry["file"]
        return self.root / f"{_sanitize(key)}.json"

    def keys(self) -> List[str]:
        return sorted(self._manifest)

    def __contains__(self, key: str) -> bool:
        return key in self._manifest

    def put(self, key: str, payload: Any) -> Path:
        """Atomically persist ``payload`` (JSON) and register its checksum."""
        text = json.dumps(payload, indent=2, sort_keys=True)
        path = self.root / f"{_sanitize(key)}.json"
        atomic_write_text(path, text)
        self._manifest[key] = {
            "file": path.name,
            "sha256": _sha256(text),
            "bytes": len(text.encode("utf-8")),
        }
        self._write_manifest()
        return path

    def verify(self, key: str) -> Path:
        """Check one artifact's integrity; return its path if intact."""
        entry = self._manifest.get(key)
        path = self.path_for(key)
        if entry is None:
            raise ArtifactCorruptError(path, "unregistered", f"key {key!r} not in manifest")
        if not path.exists():
            raise ArtifactCorruptError(path, "missing", f"key {key!r} registered but absent")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ArtifactCorruptError(path, "undecodable", str(exc)) from exc
        size = len(text.encode("utf-8"))
        if size != entry["bytes"]:
            raise ArtifactCorruptError(
                path, "truncated", f"expected {entry['bytes']} bytes, found {size}"
            )
        digest = _sha256(text)
        if digest != entry["sha256"]:
            raise ArtifactCorruptError(
                path,
                "checksum-mismatch",
                f"expected sha256 {entry['sha256'][:12]}…, found {digest[:12]}…",
            )
        return path

    def load(self, key: str) -> Any:
        """Verify and parse one artifact; raise ArtifactCorruptError if bad."""
        path = self.verify(key)
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ArtifactCorruptError(path, "undecodable", str(exc)) from exc

    def verify_all(self) -> Dict[str, Optional[ArtifactCorruptError]]:
        """Integrity verdict for every registered artifact (None = intact)."""
        verdicts: Dict[str, Optional[ArtifactCorruptError]] = {}
        for key in self.keys():
            try:
                self.verify(key)
                verdicts[key] = None
            except ArtifactCorruptError as exc:
                verdicts[key] = exc
        return verdicts

    # -- quarantine / repair -------------------------------------------
    def quarantine(self, key: str) -> Optional[Path]:
        """Move an artifact to ``quarantine/`` and forget it.

        The bytes are preserved for post-mortem; the manifest entry is
        dropped so the owning benchmark counts as not-yet-run.
        """
        path = self.path_for(key)
        dest: Optional[Path] = None
        if path.exists():
            dest = quarantine_file(path, self.quarantine_dir)
        if key in self._manifest:
            del self._manifest[key]
            self._write_manifest()
        return dest

    def repair(self) -> RepairReport:
        """Sweep the store: quarantine corrupt artifacts, drop orphans."""
        report = RepairReport()
        if self._manifest_corrupt:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            self.manifest_path.replace(self.quarantine_dir / MANIFEST_NAME)
            self._manifest_corrupt = False
            report.manifest_rebuilt = True
            self._write_manifest()
        for key, error in self.verify_all().items():
            report.checked += 1
            if error is not None:
                self.quarantine(key)
                report.quarantined.append(key)
        for tmp in sorted(self.root.glob(f"*{TMP_SUFFIX}")):
            tmp.unlink()
            report.orphans_removed.append(tmp.name)
        return report
