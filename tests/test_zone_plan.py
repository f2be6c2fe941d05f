"""Memoized fleet plans equal fresh plans (a Hypothesis differential).

The controllers of a fleet share one plan memo keyed by their planning
inputs, so a controller whose inputs equal those of a plan already
solved, by itself or by another controller, takes that plan without
building a context.  Two worlds are built alike: one plans through the
shared memos (through ``FleetController.plan``, then controller by
controller, as the remediation actuator does), the other clears each
controller's memo before every plan, so it always solves.  After every
step both must hold the same partitions, allocations, last-known link
rates, planned sizes, deployed functions, meter counts and plan spans,
and every memoized plan must have been solved for exactly the context
it would build itself.  The draws mix connectivity presets, couple
zones with different demand models on one platform, pin rates, memory
floors and input sizes that differ between controllers, so equal and
unequal inputs sit side by side, and let one zone learn a measurement
of a drawn component between steps, so memo entries go stale and the
plans they priced move.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.catalog import CATALOG
from repro.core.controller import Environment
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
#: Measured work of one learnt observation, in gigacycles: far below and
#: far above every catalog component's, so a plan moves.
WORKS = (0.01, 40.0, 1000.0)


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
            "spans": [
                (s.span_id, s.name, s.category, s.start, s.end, s.attributes)
                for s in self.tracer.spans
            ],
        }


def record_solves(world) -> Dict[int, Any]:
    """Map each partition the world's controllers solve, by id, to the
    context it was solved for (the memo keeps every one alive)."""
    solved_from: Dict[int, Any] = {}
    for controller in world.controllers:
        def solve(context, input_mb, solve=controller._solve):
            solved = solve(context, input_mb)
            solved_from[id(solved[0])] = context
            return solved

        controller._solve = solve
    return solved_from


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
    solved_from = record_solves(grouped)

    def assert_exact(controller, context):
        # A memoized plan was solved for exactly the context this plan
        # would build: the plan key leaves out no planning input.
        assert solved_from[id(controller.partition)] == context

    def fresh_plan(controller, input_mb):
        controller._plan_memo.clear()
        controller.plan(input_mb)

    input_mb = data.draw(st.sampled_from(SIZES), label="input_mb")
    contexts = [c.build_context(input_mb) for c in grouped.controllers]
    for fleet in grouped.fleets:
        fleet.plan(input_mb)
    for controller, context in zip(grouped.controllers, contexts):
        assert_exact(controller, context)
    for controller in alone.controllers:
        fresh_plan(controller, input_mb)
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
        if learn is not None:
            # Online learning moves one zone's demand model, so its
            # memo entries are priced at stale work: a tiny or a huge
            # measurement of any component, local-only ones included.
            observation = DemandObservation(
                component=data.draw(
                    st.sampled_from(grouped.fleets[learn].app.component_names),
                    label="observed component",
                ),
                input_mb=data.draw(st.sampled_from(SIZES), label="observed size"),
                measured_gcycles=data.draw(
                    st.sampled_from(WORKS), label="measured work"
                ),
                at_time=0.0,
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
                world.fleets[learn].demand.observe(observation)
        for i in order:
            memoized, fresh = grouped.controllers[i], alone.controllers[i]
            planned = memoized.planned_input_mb if size is None else size
            context = memoized.build_context(planned)
            memoized.plan(planned)
            assert_exact(memoized, context)
            fresh_plan(fresh, planned)
        assert grouped.state() == alone.state()
