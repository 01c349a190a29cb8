"""The simulator and its services run on the standard library alone."""

import os
import subprocess
import sys

import repro

#: Imports every service layer, serves one cold job on the server's
#: default backend, then prints each module it loaded from an installed
#: third-party package (anything interpreter start-up loaded is exempt).
_SCRIPT = """
import site
import sys
import tempfile

startup = set(sys.modules)

import repro
import repro.experiments
import repro.farm
import repro.serve
from repro.serve import ServeClient, ServeServer

with tempfile.TemporaryDirectory() as root:
    server = ServeServer(root, batch_window=0.01).start()
    try:
        client = ServeClient(server.url, timeout=10.0)
        job = client.submit({"benchmark": "gzip", "length": 200,
                             "warmup": 400})
        record = client.wait(job["id"], timeout=60.0)
        assert record["state"] == "done", record
        cost = client.result(job["id"])["cost"]
        assert cost["backend"] == "scalar", cost
    finally:
        server.stop()

installed = tuple(site.getsitepackages()) + (site.getusersitepackages(),)
print(sorted(
    name for name, module in list(sys.modules.items())
    if name not in startup and name.split(".")[0] != "repro"
    and (getattr(module, "__file__", None) or "").startswith(installed)
))
"""


def test_serving_a_batch_loads_no_third_party_module():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
