"""Rigid-body pose toolkit.

Pose parameterizations (Euler angles, quaternion, homogeneous matrix)
with analytic conversion Jacobians and Gaussian propagation; pose/point
composition and inversion with derivatives; matrix-calculus helpers over
a column-major 12-vector pose view; exponential/logarithm maps for 3D
and planar rigid motions with on-manifold Jacobians; pinhole projection
derivatives; a finite-difference audit of every closed-form Jacobian;
and pose-graph optimization with g2o-format I/O.
"""

from .core import (EulerPose, GaussianPose, HomPose, HomPose2, Quaternion,
                   QuatPose, convert_gaussian, jacobian_matrix_wrt_quat,
                   jacobian_matrix_wrt_ypr, jacobian_quat_to_ypr,
                   jacobian_ypr_to_quat, jacobian_ypr_wrt_matrix,
                   matrix_to_quat, matrix_to_ypr, pose_kind,
                   pose_param_vector, quat_normalize, quat_to_matrix,
                   quat_to_ypr, wrap_angle, ypr_to_matrix, ypr_to_quat)
from .errors import (BehindCameraError, GeometryError, NearPiRotationError,
                     RankDeficiencyError, SingularConfigurationError)
from .geometry import (GaussianPoint3, compose_point_matrix,
                       compose_point_quat, compose_point_ypr,
                       compose_point_ypr_small_rot_jacobian,
                       compose_pose_matrix, compose_pose_quat,
                       compose_pose_ypr, inv_compose_point_matrix,
                       inv_compose_point_quat, inverse_pose_matrix,
                       inverse_pose_quat, propagate_binary)
from .graphslam import (Edge, IterationStats, PoseGraph, SolverConfig,
                        build_normal_equations, chi2, optimize, step,
                        synth_graph)
from .g2o import format_g2o, read_g2o, write_g2o
from .lie import (AxisAngle, axis_angle_factorization, rot_z, se2_exp,
                  se2_log, se2_pseudo_exp, se2_pseudo_log, se3_exp, se3_log,
                  se3_pseudo_exp, se3_pseudo_log, so3_exp,
                  so3_exp_coordinate, so3_exp_quat, so3_log, so3_log_quat)
from .manifold_jac import (EdgeErrorSE2, EdgeErrorSE3, d_compose_se2_wrt_A,
                           d_compose_se2_wrt_B, dexp_se3_at_zero,
                           dexp_so3_at_zero, dexp_so3_quat, dlog_so3,
                           dpseudolog_se3, edge_error_se2, edge_error_se3,
                           jacob_AexpeD_de, jacob_AexpeDp_de, jacob_Dexpe_de,
                           jacob_Dexpe_de_se2, jacob_expeD_de,
                           jacob_expeDp_de, jacob_p_ominus_AexpeD_de,
                           jacob_p_ominus_expeD_de)
from .matderiv import (apply_vec12, d_apply_wrt_point, d_apply_wrt_pose,
                       d_compose_wrt_A, d_compose_wrt_B,
                       d_invapply_wrt_point, d_invapply_wrt_pose,
                       d_inverse_wrt_pose, hat3, inverse_rt, kron,
                       pose_to_vec12, transpose_permutation, unvec, vec,
                       vec12_to_pose, vee3)
from .numcheck import (JacobianReport, check_catalog,
                       manifold_numeric_jacobian, numeric_jacobian)
from .vision import (CameraIntrinsics, dproject_dp, project,
                     project_inv_pose_point, project_pose_point)

__version__ = "0.1.0"

__all__ = [
    "AxisAngle", "BehindCameraError", "CameraIntrinsics", "Edge",
    "EdgeErrorSE2", "EdgeErrorSE3", "EulerPose", "GaussianPoint3",
    "GaussianPose", "GeometryError", "HomPose", "HomPose2",
    "IterationStats", "JacobianReport", "NearPiRotationError", "PoseGraph",
    "QuatPose", "Quaternion", "RankDeficiencyError",
    "SingularConfigurationError", "SolverConfig", "apply_vec12",
    "axis_angle_factorization", "build_normal_equations", "check_catalog",
    "chi2", "compose_point_matrix", "compose_point_quat",
    "compose_point_ypr", "compose_point_ypr_small_rot_jacobian",
    "compose_pose_matrix", "compose_pose_quat", "compose_pose_ypr",
    "convert_gaussian", "d_apply_wrt_point", "d_apply_wrt_pose",
    "d_compose_se2_wrt_A", "d_compose_se2_wrt_B", "d_compose_wrt_A",
    "d_compose_wrt_B", "d_invapply_wrt_point", "d_invapply_wrt_pose",
    "d_inverse_wrt_pose", "dexp_se3_at_zero", "dexp_so3_at_zero",
    "dexp_so3_quat", "dlog_so3", "dpseudolog_se3", "dproject_dp",
    "edge_error_se2", "edge_error_se3", "format_g2o", "hat3",
    "inv_compose_point_matrix", "inv_compose_point_quat", "inverse_pose_matrix",
    "inverse_pose_quat", "inverse_rt", "jacob_AexpeD_de", "jacob_AexpeDp_de",
    "jacob_Dexpe_de", "jacob_Dexpe_de_se2", "jacob_expeD_de",
    "jacob_expeDp_de", "jacob_p_ominus_AexpeD_de", "jacob_p_ominus_expeD_de",
    "jacobian_matrix_wrt_quat", "jacobian_matrix_wrt_ypr",
    "jacobian_quat_to_ypr", "jacobian_ypr_to_quat", "jacobian_ypr_wrt_matrix",
    "kron", "manifold_numeric_jacobian", "matrix_to_quat", "matrix_to_ypr",
    "numeric_jacobian", "optimize", "pose_kind", "pose_param_vector",
    "pose_to_vec12", "project", "project_inv_pose_point",
    "project_pose_point", "propagate_binary", "quat_normalize",
    "quat_to_matrix", "quat_to_ypr", "read_g2o", "rot_z", "se2_exp",
    "se2_log", "se2_pseudo_exp", "se2_pseudo_log", "se3_exp", "se3_log",
    "se3_pseudo_exp", "se3_pseudo_log", "so3_exp", "so3_exp_coordinate",
    "so3_exp_quat", "so3_log", "so3_log_quat", "step", "synth_graph",
    "transpose_permutation", "unvec", "vec", "vec12_to_pose", "vee3",
    "wrap_angle", "write_g2o", "ypr_to_matrix", "ypr_to_quat",
]
