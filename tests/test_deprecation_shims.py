"""The legacy testbed shim warns exactly once, at the point of use.

``repro.testbed`` is a deprecation shim over the cluster layer: it emits
exactly one :class:`DeprecationWarning` when a testbed is built, while
importing it — which ``import repro`` does — stays silent.
"""

from __future__ import annotations

import warnings

from repro.core.sde import SDEConfig
from repro.testbed import LiveDevelopmentTestbed


def _config() -> SDEConfig:
    return SDEConfig(publication_timeout=1.0, generation_cost=0.05)


class TestDeprecationWarnings:
    def test_importing_the_shims_is_silent(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            import importlib

            import repro.testbed

            importlib.reload(repro.testbed)
        assert [w for w in caught if issubclass(w.category, DeprecationWarning)] == []

    def test_testbed_emits_exactly_one_deprecation_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            LiveDevelopmentTestbed(sde_config=_config())
        deprecations = [w for w in caught if issubclass(w.category, DeprecationWarning)]
        assert len(deprecations) == 1
        assert "repro.cluster.Scenario" in str(deprecations[0].message)
