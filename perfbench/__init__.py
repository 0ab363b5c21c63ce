"""Offline benchmark for respqa: seeded inputs, simulated LLM, layer traces."""
