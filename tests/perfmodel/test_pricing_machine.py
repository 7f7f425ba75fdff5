"""Random interleavings of submits and sync points price every kernel as
pricing it alone does.

A :class:`~repro.sycl.queue.Queue` does not price a kernel at
submit.  It copies the kernel's streams into the pending batch of its
:class:`~repro.sycl.profiling.ProfileLog`, or prices the memory hierarchy
right away when a stream is longer than ``LARGE_STREAM``, or records the
counts the kernel carries.  The batch is priced at the next sync point:
by the memory pass when its kernels plus its streams longer than
``SHORT_STREAM`` number ``SMALL_BATCH`` or more, one kernel at a time
otherwise, and on the spot when its held accesses pass
``PENDING_ACCESS_CAP``.

The machine below drives ``Queue.submit`` with random kernels and reads
the queue at random sync points: ``elapsed_ns``, an event's ``cost``,
``profile.costs`` and ``reset_profile``.  Its twin prices a copy of each
kernel, taken at submit, alone with ``CostModel.charge``, from its
streams even when the kernel carries its counts.  Every ``KernelCost``
field must match in value and type, and the clock must be the twin
costs' left-to-right sum.  The kernels draw:

* streams on both sides of ``SHORT_STREAM``, ``LARGE_STREAM`` and, held
  together, ``PENDING_ACCESS_CAP``;
* empty streams and kernels with no streams;
* two streams over one array object;
* kernels that carry their memory counts;
* caller arrays overwritten after submit, as operators reuse theirs.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.perfmodel.cost import LARGE_STREAM, SHORT_STREAM, SMALL_BATCH, KernelWorkload
from repro.sycl.ndrange import WorkgroupGeometry
from repro.sycl.profiling import PENDING_ACCESS_CAP
from repro.sycl.queue import Queue
from tests.perfmodel.test_bit_identity import DEVICES, assert_same_cost

SIZES = st.one_of(
    st.integers(0, 3),
    st.sampled_from([SHORT_STREAM - 1, SHORT_STREAM, SHORT_STREAM + 1, 300]),
    st.sampled_from([LARGE_STREAM - 1, LARGE_STREAM, LARGE_STREAM + 1]),
)
#: item sizes that divide every device's cache line, and one that
#: divides none
ITEM_BYTES = [1, 4, 8, 12]
#: streams of at most LARGE_STREAM accesses that one kernel holds to
#: pass PENDING_ACCESS_CAP alone
HEAVY_STREAMS = PENDING_ACCESS_CAP // LARGE_STREAM + 1
GEOMETRIES = [
    WorkgroupGeometry(0, 1, 1),
    WorkgroupGeometry(100, 128, 32),
    WorkgroupGeometry(4096, 256, 32),
    WorkgroupGeometry(1 << 16, 256, 64),
]

#: the pricing branches the runs reached, by name
COVERED = Counter()
BRANCHES = {
    "memory pass",
    "kernel by kernel",
    "priced on adding",
    "past the cap",
    "carried counts",
    "overwritten after submit",
    "one array twice",
    "empty stream",
    "no streams",
}


def _addresses(rng, size):
    """Sorted addresses, unsorted ones over a few lines, or scattered
    ones, as int32 or int64."""
    kind = rng.integers(3)
    if kind == 0:
        values = np.sort(rng.integers(0, 1 << 20, size))
    elif kind == 1:
        values = rng.integers(0, 64, size)
    else:
        values = rng.integers(0, 1 << 22, size)
    return values.astype(np.int32 if rng.integers(2) else np.int64)


@st.composite
def kernels(draw):
    """A kernel's launch fields and streams.  A heavy kernel holds
    ``HEAVY_STREAMS`` streams of at most ``LARGE_STREAM`` accesses, past
    ``PENDING_ACCESS_CAP`` together; others hold up to six streams, some
    reading an earlier stream's array object again at another region."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 15)) == 0:
        sizes = [draw(st.sampled_from([LARGE_STREAM - 1, LARGE_STREAM]))] * HEAVY_STREAMS
    else:
        sizes = draw(st.lists(SIZES, max_size=6))
    geometry = draw(st.sampled_from(GEOMETRIES))
    atomics = draw(st.sampled_from([0, 0, 1, 37, 5000]))
    wl = KernelWorkload(
        "k",
        geometry,
        active_lanes=draw(st.integers(0, geometry.total_lanes)),
        instructions_per_lane=draw(st.sampled_from([1.0, 6.0, 8.0, 2.5, 3])),
        serial_ops=draw(st.sampled_from([0, 17, 3.5, 40000])),
        atomics=atomics,
        atomic_targets=draw(st.one_of(st.just(0), st.integers(0, atomics))),
        engaged_subgroups=draw(st.sampled_from([None, None, 0.5, 3.0, 900.0])),
    )
    for size in sizes:
        wl.add_stream(_addresses(rng, size), ITEM_BYTES[rng.integers(len(ITEM_BYTES))], int(rng.integers(4)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if sizes else 0):
        again = draw(st.sampled_from(wl.streams))
        wl.add_stream(again.addresses, again.item_bytes, again.region + 1 + draw(st.integers(0, 2)))
    return wl


def _copy(wl: KernelWorkload) -> KernelWorkload:
    """``wl`` with its arrays copied, each array object once, and no
    carried counts."""
    copies = {}
    streams = []
    for s in wl.streams:
        if id(s.addresses) not in copies:
            copies[id(s.addresses)] = s.addresses.copy()
        streams.append(s._replace(addresses=copies[id(s.addresses)]))
    return replace(wl, streams=streams, memory=None)


class PricingMachine(RuleBasedStateMachine):
    @initialize(device=st.sampled_from(sorted(DEVICES)), usm=st.booleans())
    def start(self, device, usm):
        self.queue = Queue(DEVICES[device](), capacity_limit=0, memory_mode="shared" if usm else "device")
        self.model = self.queue.cost_model
        #: (event, twin cost) per kernel of the queue's current log, and
        #: of the logs before its last reset
        self.log = []
        self.earlier = []

    def _note_sync(self):
        """Record which pass the pending batch takes at this sync point."""
        pending = self.queue.profile._pending
        if pending is not None:
            large = len(pending) + pending.long_streams >= SMALL_BATCH
            COVERED["memory pass" if large else "kernel by kernel"] += 1

    @rule(
        wls=st.lists(
            st.tuples(kernels(), st.integers(0, 5), st.sampled_from([None, None, "one line", "spread"])),
            min_size=1,
            max_size=2 * SMALL_BATCH,
        )
    )
    def submit(self, wls):
        """Submit kernels one after another.  One in six carries its
        counts; after submitting a kernel, the caller may overwrite its
        arrays with one line for every access or a line each."""
        for wl, carry, overwrite in wls:
            twin = _copy(wl)
            if carry == 0 and wl.streams:
                wl.memory = self.model.memory_counts(wl.streams)
                COVERED["carried counts"] += 1
            sizes = [s.addresses.size for s in wl.streams]
            COVERED["no streams"] += not sizes
            COVERED["empty stream"] += 0 in sizes
            COVERED["priced on adding"] += wl.memory is None and max(sizes, default=0) > LARGE_STREAM
            COVERED["one array twice"] += len({id(s.addresses) for s in wl.streams}) < len(sizes)
            event = self.queue.submit(wl)
            if self.queue.profile._pending is None:
                COVERED["past the cap"] += 1
            self.log.append((event, self.model.charge(twin)))
            if overwrite and wl.streams:
                for s in wl.streams:
                    s.addresses[...] = 0 if overwrite == "one line" else np.arange(s.addresses.size) * 256
                COVERED["overwritten after submit"] += 1

    @rule()
    def read_clock(self):
        self._note_sync()
        total = 0
        for _, cost in self.log:
            total += cost.time_ns
        elapsed = self.queue.elapsed_ns
        assert elapsed == total and type(elapsed) is type(total)
        assert self.queue.profile.total_dram_bytes == sum(cost.dram_bytes for _, cost in self.log)

    @precondition(lambda self: self.log or self.earlier)
    @rule(data=st.data())
    def read_event(self, data):
        self._note_sync()
        event, twin = data.draw(st.sampled_from(self.log + self.earlier))
        assert_same_cost(event.cost, twin)

    @rule()
    def read_costs(self):
        self._note_sync()
        costs = self.queue.profile.costs
        assert len(costs) == len(self.log)
        for cost, (event, twin) in zip(costs, self.log):
            assert_same_cost(cost, twin)
            assert event.cost is cost

    @rule()
    def reset_profile(self):
        self._note_sync()
        self.queue.reset_profile()
        # the events of the old log keep their costs; a few stay drawable
        self.earlier = (self.earlier + self.log)[-20:]
        self.log = []

    @invariant()
    def pending_accesses_stay_capped(self):
        pending = self.queue.profile._pending
        assert pending is None or pending.accesses <= PENDING_ACCESS_CAP

    def teardown(self):
        if hasattr(self, "queue"):
            self.read_costs()
            for event, twin in self.earlier:
                assert_same_cost(event.cost, twin)


def test_queue_prices_every_kernel_as_alone():
    COVERED.clear()
    run_state_machine_as_test(
        PricingMachine,
        settings=settings(
            max_examples=60,
            stateful_step_count=30,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
        ),
    )
    assert not [branch for branch in BRANCHES if not COVERED[branch]], COVERED
