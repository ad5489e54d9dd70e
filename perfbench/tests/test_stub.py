"""The chat-completions stub answers known prompts and counts what it saw."""

from __future__ import annotations

import json
import subprocess
import sys

import requests

import stub


def test_stub_answers_counts_and_exits():
    messages = [{"role": "user", "content": "scene?"}]
    proc = subprocess.Popen([sys.executable, stub.__file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        proc.stdin.write(json.dumps({stub.prompt_key(messages): "ghost_jam"}) + "\n")
        proc.stdin.flush()
        url = f"http://127.0.0.1:{int(proc.stdout.readline())}/v1/chat/completions"
        no_proxy = {"http": None}
        ok = requests.post(url, json={"model": "m", "messages": messages}, timeout=10, proxies=no_proxy)
        assert ok.json()["choices"][0]["message"]["content"] == "ghost_jam"
        again = requests.post(url, json={"model": "m", "messages": messages}, timeout=10, proxies=no_proxy)
        assert again.status_code == 200
        unknown = requests.post(url, json={"model": "m", "messages": []}, timeout=10, proxies=no_proxy)
        assert unknown.status_code == 404
        proc.stdin.close()
        stats = json.loads(proc.stdout.readline())
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()
    assert stats["requests"] == 3
    assert stats["unknown"] == 1
    assert stats["repeats"] == 1
    assert stats["connections"] == 3
    assert stats["serve_s"] > 0
