"""Tests for the broker: servants, references, proxies (in-process)."""

import pytest

from repro.errors import NamingError, OrbError, RemoteInvocationError
from repro.geometry import Rect
from repro.orb import EventChannel, NamingService, Orb


class Calculator:
    """A test servant."""

    def add(self, a, b):
        return a + b

    def boom(self):
        raise ValueError("deliberate failure")

    def _secret(self):
        return "hidden"

    def rect(self):
        return Rect(0, 0, 2, 3)


class Restricted:
    ORB_EXPOSED = ("ping",)

    def ping(self):
        return "pong"

    def hidden(self):
        return "nope"


class TestRegistration:
    def test_register_and_resolve_inproc(self):
        orb = Orb()
        ref = orb.register("calc", Calculator())
        assert ref == "inproc://calc"
        proxy = orb.resolve(ref)
        assert proxy.add(2, 3) == 5

    def test_duplicate_id_rejected(self):
        orb = Orb()
        orb.register("calc", Calculator())
        with pytest.raises(OrbError):
            orb.register("calc", Calculator())

    def test_invalid_id_rejected(self):
        orb = Orb()
        with pytest.raises(OrbError):
            orb.register("", Calculator())
        with pytest.raises(OrbError):
            orb.register("a/b", Calculator())

    def test_unregister(self):
        orb = Orb()
        orb.register("calc", Calculator())
        assert orb.unregister("calc")
        assert not orb.unregister("calc")
        with pytest.raises(OrbError):
            orb.resolve("inproc://calc")

    def test_reference_for_unknown_servant(self):
        with pytest.raises(OrbError):
            Orb().reference_for("ghost")

    def test_object_ids(self):
        orb = Orb()
        orb.register("b", Calculator())
        orb.register("a", Calculator())
        assert orb.adapter.object_ids() == ("a", "b")


class TestInvocation:
    def test_value_types_cross_the_boundary(self):
        orb = Orb()
        proxy = orb.resolve(orb.register("calc", Calculator()))
        assert proxy.rect() == Rect(0, 0, 2, 3)

    def test_remote_exception_wrapped(self):
        orb = Orb()
        proxy = orb.resolve(orb.register("calc", Calculator()))
        with pytest.raises(RemoteInvocationError) as exc_info:
            proxy.boom()
        assert exc_info.value.remote_type == "ValueError"
        assert "deliberate" in exc_info.value.remote_message

    def test_unknown_method(self):
        orb = Orb()
        proxy = orb.resolve(orb.register("calc", Calculator()))
        with pytest.raises(RemoteInvocationError):
            proxy.divide(1, 2)

    def test_private_methods_blocked(self):
        orb = Orb()
        proxy = orb.resolve(orb.register("calc", Calculator()))
        with pytest.raises(AttributeError):
            proxy._secret()

    def test_exposed_allowlist(self):
        orb = Orb()
        proxy = orb.resolve(orb.register("r", Restricted()))
        assert proxy.ping() == "pong"
        with pytest.raises(RemoteInvocationError):
            proxy.hidden()

    def test_kwargs(self):
        orb = Orb()
        proxy = orb.resolve(orb.register("calc", Calculator()))
        assert proxy.add(a=1, b=2) == 3

    def test_malformed_reference_scheme(self):
        with pytest.raises(OrbError):
            Orb().resolve("http://example.com/thing")


class TestNamingService:
    def test_bind_resolve(self):
        naming = NamingService()
        naming.bind("svc", "inproc://svc")
        assert naming.resolve("svc") == "inproc://svc"

    def test_double_bind_rejected(self):
        naming = NamingService()
        naming.bind("svc", "a")
        with pytest.raises(NamingError):
            naming.bind("svc", "b")

    def test_rebind_replaces(self):
        naming = NamingService()
        naming.bind("svc", "a")
        naming.rebind("svc", "b")
        assert naming.resolve("svc") == "b"

    def test_unknown_name(self):
        with pytest.raises(NamingError):
            NamingService().resolve("nope")
        assert NamingService().resolve_or_none("nope") is None

    def test_unbind(self):
        naming = NamingService()
        naming.bind("svc", "a")
        assert naming.unbind("svc")
        assert not naming.unbind("svc")

    def test_list_services(self):
        naming = NamingService()
        naming.bind("b", "1")
        naming.bind("a", "2")
        assert naming.list_services() == ["a", "b"]

    def test_empty_name_rejected(self):
        with pytest.raises(NamingError):
            NamingService().bind("", "x")

    def test_discovery_over_orb(self):
        # The naming service is itself a servant (the Gaia pattern).
        orb = Orb()
        naming = NamingService()
        naming_ref = orb.register("naming", naming)
        orb.register("calc", Calculator())
        naming.bind("calculator", orb.reference_for("calc"))
        remote_naming = orb.resolve(naming_ref)
        calc_ref = remote_naming.resolve("calculator")
        assert orb.resolve(calc_ref).add(1, 1) == 2


class TestEventChannel:
    def test_local_fanout(self):
        channel = EventChannel()
        seen_a, seen_b = [], []
        channel.subscribe(seen_a.append)
        channel.subscribe(seen_b.append)
        assert channel.publish({"k": 1}) == 2
        assert seen_a == seen_b == [{"k": 1}]

    def test_unsubscribe(self):
        channel = EventChannel()
        seen = []
        sid = channel.subscribe(seen.append)
        assert channel.unsubscribe(sid)
        assert not channel.unsubscribe(sid)
        channel.publish({"k": 1})
        assert seen == []

    def test_failing_consumer_does_not_block_others(self):
        channel = EventChannel()
        seen = []

        def bad(event):
            raise RuntimeError("consumer crashed")

        channel.subscribe(bad)
        channel.subscribe(seen.append)
        delivered = channel.publish({"k": 1})
        assert delivered == 1
        assert seen == [{"k": 1}]
        assert len(channel.delivery_failures) == 1

    def test_strict_mode_raises(self):
        channel = EventChannel(swallow_errors=False)
        channel.subscribe(lambda e: (_ for _ in ()).throw(RuntimeError()))
        with pytest.raises(RuntimeError):
            channel.publish({})

    def test_remote_consumer_via_orb(self):
        orb = Orb()

        class Consumer:
            def __init__(self):
                self.events = []

            def notify(self, event):
                self.events.append(event)

        consumer = Consumer()
        ref = orb.register("consumer", consumer)
        channel = EventChannel(orb)
        channel.subscribe_remote(ref)
        channel.publish({"x": 42})
        assert consumer.events == [{"x": 42}]

    def test_remote_without_orb_rejected(self):
        with pytest.raises(OrbError):
            EventChannel().subscribe_remote("inproc://x")

    def test_consumer_count(self):
        channel = EventChannel()
        channel.subscribe(lambda e: None)
        channel.subscribe(lambda e: None)
        assert channel.consumer_count() == 2

    def test_event_copies_isolated(self):
        channel = EventChannel()
        captured = []
        channel.subscribe(lambda e: captured.append(e))
        original = {"k": 1}
        channel.publish(original)
        captured[0]["k"] = 99
        assert original["k"] == 1


class _Mutator:
    """Servant that mutates its argument and hoards returned state."""

    def __init__(self):
        self.received = None

    def absorb(self, payload):
        self.received = payload
        payload["tampered"] = True
        return payload

    def state(self):
        return self.received


class TestInProcFastPath:
    """The fast marshal must be observably identical to a full
    serializer round-trip — including mutation isolation."""

    def test_fast_path_taken_for_value_types(self):
        orb = Orb()
        orb.register("calc", Calculator())
        proxy = orb.resolve("inproc://calc")
        rect = proxy.rect()
        assert rect == Rect(0, 0, 2, 3)
        assert proxy.add(2, 3) == 5
        stats = orb.transport_stats()
        assert stats["inproc_fast_invocations"] == 2
        assert stats["inproc_fallback_invocations"] == 0

    def test_servant_mutation_cannot_reach_caller(self):
        orb = Orb()
        servant = _Mutator()
        orb.register("mut", servant)
        proxy = orb.resolve("inproc://mut")
        payload = {"rect": Rect(1, 2, 3, 4), "items": [1, 2]}
        result = proxy.absorb(payload)
        # The servant's edit shows up in the *returned* copy...
        assert result["tampered"] is True
        # ...but neither the caller's argument nor the servant's
        # retained copy alias the caller's objects.
        assert "tampered" not in payload
        assert servant.received is not payload
        servant.received["items"].append(99)
        assert payload["items"] == [1, 2]

    def test_tuples_arrive_as_lists_like_tcp(self):
        class Echo:
            def echo(self, value):
                return value

        orb = Orb()
        orb.register("echo", Echo())
        proxy = orb.resolve("inproc://echo")
        # JSON has no tuple; the fast path matches that observable.
        assert proxy.echo((1, 2, 3)) == [1, 2, 3]

    def test_serialization_failure_parity(self):
        class Opaque:
            pass

        class Leaky:
            def leak(self):
                return Opaque()

        orb = Orb()
        orb.register("leaky", Leaky())
        proxy = orb.resolve("inproc://leaky")
        # An unserializable return must fail in-proc exactly as it
        # would over TCP — the fast path may not smuggle it through.
        with pytest.raises(OrbError):
            proxy.leak()
