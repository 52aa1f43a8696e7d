"""End-to-end and per-layer benchmark of nvforge; see README.md."""
