from __future__ import annotations

import socket
import urllib.request
from importlib import resources

import pytest

from anomaloop.commands import AnomalyLabel, serialize
from anomaloop.executor import compile_plan, execute, run_closed_loop
from anomaloop.observation import observe
from anomaloop.pipeline import (
    OracleResolver,
    Stage,
    StageFailure,
    run_pipeline,
)
from anomaloop.remote import (
    AuthError,
    BudgetExceeded,
    EndpointConfig,
    MalformedResponse,
    RemoteResolver,
    TransportError,
    chat_completion,
    load_template,
)
from anomaloop.scenarios import ScenarioSpec, build, is_resolved, warm_up
from anomaloop.commands import validate
from stubserver import StubEndpoint


@pytest.fixture(autouse=True)
def api_key(monkeypatch):
    monkeypatch.setenv("ANOMALOOP_API_KEY", "test-key")


def endpoint_for(stub, **kw) -> EndpointConfig:
    return EndpointConfig(base_url=stub.base_url, model="stub-model", **kw)


def oracle_stage_outputs(cfg, kind=AnomalyLabel.GHOST_JAM, seed=0):
    """Canned per-stage texts captured from an oracle run."""
    world, truth = build(ScenarioSpec(kind=kind, seed=seed), cfg)
    world = warm_up(world, cfg)
    obs = observe(world)
    _, _, traces = run_pipeline(obs, OracleResolver(cfg))
    return world, truth, obs, [t.output for t in traces]


class TestChatCompletion:
    def test_success_and_payload_shape(self, cfg):
        with StubEndpoint(script=[("text", "hello")]) as stub:
            out = chat_completion(endpoint_for(stub), [{"role": "user", "content": "hi"}], sleep=lambda s: None)
        assert out == "hello"
        req = stub.requests[0]
        assert req["model"] == "stub-model"
        assert req["messages"] == [{"role": "user", "content": "hi"}]
        assert "temperature" in req

    def test_two_500s_then_success(self):
        sleeps = []
        with StubEndpoint(script=[("status", 500), ("status", 500), ("text", "ok")]) as stub:
            out = chat_completion(endpoint_for(stub), [], sleep=sleeps.append)
        assert out == "ok"
        assert sleeps == [1.0, 2.0]
        assert len(stub.requests) == 3

    def test_exhaustion_raises_budget_exceeded(self):
        script = [("status", 500)] * 10
        with StubEndpoint(script=script) as stub:
            with pytest.raises(BudgetExceeded):
                chat_completion(endpoint_for(stub), [], sleep=lambda s: None)
        assert len(stub.requests) == 4  # initial attempt + three retries

    def test_auth_error_not_retried(self):
        with StubEndpoint(script=[("status", 401)]) as stub:
            with pytest.raises(AuthError):
                chat_completion(endpoint_for(stub), [], sleep=lambda s: None)
        assert len(stub.requests) == 1

    def test_missing_key_is_auth_error(self, monkeypatch):
        monkeypatch.delenv("ANOMALOOP_API_KEY")
        with StubEndpoint(script=[("text", "x")]) as stub:
            with pytest.raises(AuthError):
                chat_completion(endpoint_for(stub), [], sleep=lambda s: None)

    def test_malformed_body(self):
        with StubEndpoint(script=[("raw", b"{\"nope\": 1}")]) as stub:
            with pytest.raises(MalformedResponse):
                chat_completion(endpoint_for(stub), [], sleep=lambda s: None)

    def test_dropped_connection_costs_one_retry(self):
        sleeps = []
        with StubEndpoint(script=[("drop", None), ("text", "ok")]) as stub:
            out = chat_completion(endpoint_for(stub), [], sleep=sleeps.append)
        assert out == "ok"
        assert sleeps == [1.0]
        assert len(stub.requests) == 2

    def test_refused_connection_exhausts_budget(self):
        sleeps = []
        with socket.socket() as bound:  # bound but not listening: connections are refused
            bound.bind(("127.0.0.1", 0))
            endpoint = EndpointConfig(base_url=f"http://127.0.0.1:{bound.getsockname()[1]}", model="m")
            with pytest.raises(BudgetExceeded, match="after 4 attempts"):
                chat_completion(endpoint, [], sleep=sleeps.append)
        assert sleeps == [1.0, 2.0, 4.0]

    def test_proxy_variables_are_honoured(self, monkeypatch):
        for name in ("no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        with StubEndpoint(script=[("text", "via proxy")]) as proxy:
            monkeypatch.setenv("http_proxy", proxy.base_url)
            # urlopen reads the proxy variables when it builds its shared opener.
            urllib.request.install_opener(None)
            try:
                out = chat_completion(EndpointConfig(base_url="http://resolver.invalid", model="m"), [],
                                      sleep=lambda s: None)
            finally:
                urllib.request.install_opener(None)
        assert out == "via proxy"
        assert len(proxy.requests) == 1

    def test_client_error_not_retryable(self):
        with StubEndpoint(script=[("status", 418)]) as stub:
            with pytest.raises(TransportError) as ei:
                chat_completion(endpoint_for(stub), [], sleep=lambda s: None)
            assert not ei.value.retryable
        assert len(stub.requests) == 1


class TestTemplates:
    @pytest.mark.parametrize("stage", list(Stage))
    def test_template_is_the_prompt_file_on_every_call(self, stage):
        text = resources.files("anomaloop").joinpath("prompts", f"{stage.value.lower()}.txt").read_text()
        first = load_template(stage)
        first.safe_substitute(OBSERVATION="x", SCENE_LABEL="y")
        again = load_template(stage)
        assert again is first  # read once, then served from memory
        assert again.template == text


class TestRemotePipeline:
    def test_four_ordered_stage_requests(self, cfg):
        _, _, obs, outputs = oracle_stage_outputs(cfg)
        with StubEndpoint(script=[("text", o) for o in outputs]) as stub:
            resolver = RemoteResolver(endpoint_for(stub), sleep=lambda s: None)
            plan, report, traces = run_pipeline(obs, resolver)
        assert len(stub.requests) == 4
        for req, stage in zip(stub.requests, Stage):
            system = req["messages"][0]
            assert system["role"] == "system"
            assert stage.value in system["content"]
        assert [t.stage for t in traces] == list(Stage)

    def test_canned_outputs_reproduce_oracle_execution(self, cfg):
        world, truth, obs, outputs = oracle_stage_outputs(cfg, AnomalyLabel.DEADLOCK, seed=2)
        # Oracle execution.
        oracle_plan, _, _ = run_pipeline(obs, OracleResolver(cfg))
        vp = validate(oracle_plan, obs)
        oracle_final, oracle_log = execute(world, compile_plan(vp, world, cfg), 600, stop_when=lambda w: is_resolved(w, truth))
        # Remote execution from the stubbed stage texts.
        with StubEndpoint(script=[("text", o) for o in outputs]) as stub:
            remote_plan, _, _ = run_pipeline(obs, RemoteResolver(endpoint_for(stub), sleep=lambda s: None))
        assert serialize(remote_plan) == serialize(oracle_plan)
        vp2 = validate(remote_plan, obs)
        remote_final, remote_log = execute(world, compile_plan(vp2, world, cfg), 600, stop_when=lambda w: is_resolved(w, truth))
        assert remote_final.canonical_dump() == oracle_final.canonical_dump()
        assert remote_log.digest() == oracle_log.digest()

    def test_persistent_formatting_garbage_single_reask(self, cfg):
        _, _, obs, outputs = oracle_stage_outputs(cfg)
        script = [("text", outputs[0]), ("text", outputs[1]), ("text", outputs[2]),
                  ("text", "@@garbage@@"), ("text", "@@garbage again@@")]
        with StubEndpoint(script=script) as stub:
            with pytest.raises(StageFailure) as ei:
                run_pipeline(obs, RemoteResolver(endpoint_for(stub), sleep=lambda s: None))
        assert ei.value.stage is Stage.FORMATTING
        assert len(stub.requests) == 5  # four stages + exactly one re-ask
        # The re-ask prompt carries the parser diagnostics.
        assert "line 1" in stub.requests[4]["messages"][1]["content"]

    def test_transport_exhaustion_propagates(self, cfg):
        _, _, obs, _ = oracle_stage_outputs(cfg)
        with StubEndpoint(script=[("status", 503)] * 8) as stub:
            with pytest.raises(BudgetExceeded):
                run_pipeline(obs, RemoteResolver(endpoint_for(stub), sleep=lambda s: None))

    def test_closed_loop_with_stub_resolver(self, cfg):
        spec = ScenarioSpec(kind=AnomalyLabel.GHOST_JAM, seed=5)
        world, truth = build(spec, cfg)
        world = warm_up(world, cfg)
        obs = observe(world)
        _, _, traces = run_pipeline(obs, OracleResolver(cfg))
        outputs = [t.output for t in traces]
        with StubEndpoint(script=[("text", o) for o in outputs]) as stub:
            ep = run_closed_loop(spec, RemoteResolver(endpoint_for(stub), sleep=lambda s: None), cfg)
        assert ep.resolved

    def test_cli_run_against_stub(self, cfg, tmp_path):
        from pathlib import Path

        from anomaloop.cli import main
        from anomaloop.scenarios import load_spec

        scenario = Path(__file__).resolve().parent.parent / "docs" / "examples" / "ghost_jam.scenario"
        spec = load_spec(scenario)
        world, _ = build(spec, cfg)
        world = warm_up(world, cfg)
        _, _, traces = run_pipeline(observe(world), OracleResolver(cfg))
        script = [("text", t.output) for t in traces]
        with StubEndpoint(script=script) as stub:
            code = main(
                ["run", "--scenario", str(scenario), "--resolver", "remote",
                 "--endpoint", stub.base_url, "--model", "stub-model", "--out", str(tmp_path)]
            )
        assert code == 0
        assert len(stub.requests) == 4
        assert (tmp_path / "report.json").exists()
