from stfusion.config import DataConfig, RunConfig, SamplingConfig, parse_run_config
from stfusion.data import SynthSpec
from stfusion.lab import TrainSchedule
from stfusion.model import TemplateConfig


def test_required_keys_only_take_the_defaults():
    cfg = parse_run_config({
        "template": {
            "num_blocks": 1, "layers_per_block": 2, "growth_channels": 4,
            "stem_channels": 4, "clip_shape": [1, 4, 8, 8], "num_classes": 2,
        },
        "schedule": {},
        "data": {"mode": "temporal_only", "classes": 2, "clips_per_class": 8, "clip_shape": [1, 4, 8, 8]},
    })
    assert cfg == RunConfig(
        template=TemplateConfig(
            num_blocks=1, layers_per_block=2, growth_channels=4, stem_channels=4,
            clip_shape=(1, 4, 8, 8), num_classes=2, kernel_sizes=(3, 3, 3),
        ),
        schedule=TrainSchedule(
            warmup_epochs=10, main_epochs=30, batch_size=16, lr=0.05,
            lr_decay_epochs=(20,), lr_decay_factor=0.1, seed=0,
        ),
        objective_k=1.0,
        data=DataConfig(
            spec=SynthSpec(mode="temporal_only", classes=2, clips_per_class=8,
                           clip_shape=(1, 4, 8, 8), noise_sigma=0.0),
            seed=0,
            train_frac=0.75,
        ),
        sampling=SamplingConfig(count=100, seed=0, recalibrate_bn=False),
    )
