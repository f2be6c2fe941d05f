"""Zone-wide plans equal per-controller plans (a Hypothesis differential).

:func:`repro.core.controller.plan_zone` plans many controllers at once,
building one context, probing the memo once and solving at most once per
group of controllers whose planning inputs are equal.  Two worlds are
built alike: one plans through ``plan_zone`` (directly, as the
remediation actuator does, and through ``FleetController.plan``), the
other calls ``OffloadController.plan`` on each controller in the same
order.  After every step both must hold the same partitions,
allocations, last-known link rates, planned sizes, deployed functions,
meter counts, plan memo sizes and plan spans.  The draws mix
connectivity presets, couple zones with different demand models behind
one planning pass, and pin rates, memory floors and input sizes that
differ between controllers, so equal and unequal inputs sit side by
side.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.catalog import CATALOG
from repro.core.controller import Environment, plan_zone
from repro.device.ue import DeviceSpec, UserEquipment
from repro.fleet import FleetController, FleetEnvironment
from repro.metrics import MetricRegistry
from repro.network.profiles import cloud_path, profile
from repro.profiling.profiler import DemandObservation
from repro.serverless.platform import ServerlessPlatform
from repro.sim import Simulator
from repro.sim.rng import SeedSequenceRegistry
from repro.telemetry import Tracer

APPS = ("photo_backup", "document_ocr", "nightly_analytics")
PRESETS = ("3g", "4g", "wifi")
SIZES = (0.5, 4.0, 16.0)
#: Pinned planning rates: None unpins, 125 B/s prices the cloud out,
#: 1e8 B/s makes every transfer free.
RATES = (None, 125.0, 1.25e6, 1e8)
FLOORS = (0.0, 1024.0, 3008.0)


class World:
    """Coupled zones on one simulator and platform, one fleet per zone."""

    def __init__(self, zones) -> None:
        self.sim = Simulator()
        self.tracer = Tracer(self.sim)
        self.sim.tracer = self.tracer
        metrics = MetricRegistry()
        self.platform = ServerlessPlatform(
            self.sim, metrics=metrics,
            rng=SeedSequenceRegistry(0).stream("platform"),
        )
        self.fleets: List[FleetController] = []
        for index, (app, presets) in enumerate(zones):
            registry = SeedSequenceRegistry(index)
            devices = [
                Environment(
                    sim=self.sim,
                    ue=UserEquipment(
                        self.sim,
                        replace(DeviceSpec(), name=f"z{index}.ue{local}"),
                        metrics=metrics,
                    ),
                    platform=self.platform,
                    uplink=cloud_path(
                        self.sim, profile(preset), uplink=True,
                        metrics=metrics,
                    ),
                    downlink=cloud_path(
                        self.sim, profile(preset), uplink=False,
                        metrics=metrics,
                    ),
                    rng=registry.fork(f"device{local}"),
                    metrics=metrics,
                )
                for local, preset in enumerate(presets)
            ]
            fleet = FleetController(
                FleetEnvironment(
                    self.sim, self.platform, devices, registry, metrics
                ),
                CATALOG[app](),
            )
            fleet.profile_offline(input_sizes_mb=(0.5, 4.0), repetitions=1)
            self.fleets.append(fleet)
        self.controllers = [c for f in self.fleets for c in f.controllers]

    def state(self) -> Dict[str, Any]:
        platform = self.platform
        return {
            "controllers": [
                (
                    c.partition, c.allocation, c._last_rates,
                    c.planned_input_mb, c._deployed,
                )
                for c in self.controllers
            ],
            "deploy_generation": platform.deploy_generation,
            "deployed": [
                (name, platform.spec(name))
                for name in sorted(platform.deployed_functions())
            ],
            "plans_computed": self.sim.meter.plans_computed,
            "memo_sizes": [
                len(f.controllers[0]._plan_memo) for f in self.fleets
            ],
            "spans": [
                (s.span_id, s.name, s.category, s.start, s.end, s.attributes)
                for s in self.tracer.spans
            ],
        }


zones_strategy = st.lists(
    st.tuples(
        st.sampled_from(APPS),
        st.lists(st.sampled_from(PRESETS), min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(zones=zones_strategy, data=st.data())
def test_zone_plans_equal_per_controller_plans(zones, data):
    grouped, alone = World(zones), World(zones)
    input_mb = data.draw(st.sampled_from(SIZES), label="input_mb")
    for fleet in grouped.fleets:
        fleet.plan(input_mb)
    for controller in alone.controllers:
        controller.plan(input_mb)
    assert grouped.state() == alone.state()

    n = len(grouped.controllers)
    for _ in range(data.draw(st.integers(1, 4), label="steps")):
        order = data.draw(
            st.lists(st.integers(0, n - 1), unique=True, min_size=1),
            label="re-planned controllers, in order",
        )
        size = data.draw(st.sampled_from((None,) + SIZES), label="size")
        pins = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(RATES),
                    st.sampled_from(RATES),
                    st.sampled_from(FLOORS),
                ),
                min_size=n,
                max_size=n,
            ),
            label="uplink, downlink and floor per controller",
        )
        learn = data.draw(
            st.none() | st.integers(0, len(zones) - 1), label="learning zone"
        )
        for world in (grouped, alone):
            for controller, (up, down, floor) in zip(world.controllers, pins):
                for link, rate in (("uplink", up), ("downlink", down)):
                    if rate is None:
                        controller.plan_rate_overrides.pop(link, None)
                    else:
                        controller.plan_rate_overrides[link] = rate
                controller.memory_floor_mb = floor
            if learn is not None:
                # Online learning moves one zone's demand model, so its
                # memo entries are priced at stale work.
                fleet = world.fleets[learn]
                fleet.demand.observe(DemandObservation(
                    component=fleet.app.component_names[-1],
                    input_mb=4.0,
                    measured_gcycles=7.0,
                    at_time=0.0,
                ))
        plan_zone([grouped.controllers[i] for i in order], size)
        for i in order:
            controller = alone.controllers[i]
            controller.plan(
                controller.planned_input_mb if size is None else size
            )
        assert grouped.state() == alone.state()
