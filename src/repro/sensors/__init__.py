"""Synthetic sensor models.

The paper's setup posts a 1920x1080 front camera at 15 Hz, a LiDAR at 10 Hz,
and GPS/IMU at 12.5 Hz from the LGSVL simulator to Apollo.  Here each sensor
reads the ground truth — the live :class:`~repro.sim.world.World`, which both
simulation engines pass every step, or a snapshot of it — and produces
measurements in its own frame, through one plain-float core per sensor
(``render_rows``, ``scan_rows``, ``read``) that its dataclass-building method
(``capture``, ``scan``, ``measure``) wraps:

* the camera projects objects ahead of the EV into image-plane bounding boxes
  (the representation the trajectory hijacker perturbs);
* the LiDAR produces range/bearing detections, reliable for vehicles but
  range-limited for pedestrians (which is why the paper's sensor fusion
  registers pedestrians later than vehicles);
* the GPS/IMU reports the ego pose and speed with small Gaussian noise.
"""

from repro.sensors.camera import CameraFrame, CameraObject, CameraSensor
from repro.sensors.gps_imu import EgoPoseEstimate, GpsImuSensor
from repro.sensors.lidar import LidarDetection, LidarScan, LidarSensor

__all__ = [
    "CameraFrame",
    "CameraObject",
    "CameraSensor",
    "LidarDetection",
    "LidarScan",
    "LidarSensor",
    "EgoPoseEstimate",
    "GpsImuSensor",
]
