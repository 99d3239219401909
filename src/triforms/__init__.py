"""Exact q-expansions of triangle-group Hauptmoduls and automorphic
forms, with p-integrality classification via Dwork congruences."""
