"""Discriminator-guided refinement of generative models at desk scale.

The package splits into f-divergence generator machinery (`generators`),
toy distributions and the forward noising process (`distributions`),
discriminator nets with exact gradients (`discriminator`), refined-model
construction (`refine`), samplers (`samplers`), divergence and bound
estimators (`metrics`), brute-force oracles (`oracle`), and the
experiment pipelines plus CLI (`experiments`, `verify`, `cli`).
Importing the package loads none of them; import each from its module.
"""

__version__ = "0.1.0"
