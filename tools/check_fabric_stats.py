#!/usr/bin/env python3
"""Usage: check_fabric_stats.py <path/to/flexsfp-stats>

Fails unless `flexsfp-stats --fabric --json` exits 0, prints JSON, and every
crosspoint carrying a module's traffic, (in, targets[in]), has an occupancy
high watermark >= 1. A series key that names no series reads 0, so a wrong
key in the report fails here.
"""
import json
import subprocess
import sys

out = subprocess.run([sys.argv[1], "--fabric", "--duration-us", "50",
                      "--json"], capture_output=True, text=True, check=True)
doc = json.loads(out.stdout)
hwm = {(x["in"], x["out"]): x["hwm"] for x in doc["crosspoints"]}
idle = [(i, t) for i, t in enumerate(doc["targets"]) if hwm.get((i, t), 0) < 1]
if len(doc["targets"]) != doc["modules"] or idle:
    sys.exit(f"traffic-carrying crosspoints with no occupancy: {idle}")
print(f"ok: {doc['modules']} modules, every target crosspoint hwm >= 1")
