"""CI/CD substrate: repositories, builds, artifacts, deployments.

Contribution C4 integrates offloading into "a modern software deployment
process".  This package models that process on the simulation kernel:

* :class:`SourceRepository` — versioned application revisions (commits);
* :class:`BuildSystem` — turns a revision into per-component artifacts,
  charging simulated build time;
* :class:`ArtifactRegistry` — stores and serves artifacts;
* :class:`DeploymentTarget` — pushes function artifacts onto the
  serverless platform, charging per-function deployment time.

:mod:`repro.core.pipeline` composes these into the full
build→profile→partition→allocate→deploy→canary→promote pipeline.
"""

from repro import _lazy_exports

_EXPORTS = {
    "Artifact": "artifacts",
    "ArtifactRegistry": "artifacts",
    "BuildSystem": "build",
    "Commit": "repo",
    "DeploymentTarget": "deploy",
    "SourceRepository": "repo",
}

__getattr__, __dir__, __all__ = _lazy_exports(globals(), _EXPORTS)
