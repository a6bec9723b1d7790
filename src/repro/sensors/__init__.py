"""Synthetic sensor models.

The paper's setup posts a 1920x1080 front camera at 15 Hz, a LiDAR at 10 Hz,
and GPS/IMU at 12.5 Hz from the LGSVL simulator to Apollo.  Here each sensor
reads the ground truth — the live :class:`~repro.sim.world.World` that a
simulation lane drives, every step — and produces its measurements as
plain-float rows, through one core per sensor (``render_rows``,
``scan_rows``, ``read``):

* the camera projects objects ahead of the EV into image-plane bounding-box
  rows — the frame the trajectory hijacker intercepts and rewrites;
* the LiDAR produces range/bearing detection rows, reliable for vehicles but
  range-limited for pedestrians (which is why the paper's sensor fusion
  registers pedestrians later than vehicles);
* the GPS/IMU reports the ego pose and speed with small Gaussian noise.
"""

from repro.sensors.camera import CameraSensor
from repro.sensors.gps_imu import GpsImuSensor
from repro.sensors.lidar import LidarSensor

__all__ = [
    "CameraSensor",
    "LidarSensor",
    "GpsImuSensor",
]
