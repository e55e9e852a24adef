"""Speculative decoding for continuous-valued autoregressive tokens.

Tokens are d-dimensional real vectors sampled through Gaussian denoising
chains conditioned by a toy autoregressive backbone.  A cheap draft model
proposes several tokens per step; the expensive target model verifies them
along noise-aligned chains and patches the first rejection by
acceptance-rejection sampling from the residual distribution, preserving the
target model's output law.

Nothing is re-exported here: import from the submodules, e.g.
``from cspdec.engine import generate``.
"""
