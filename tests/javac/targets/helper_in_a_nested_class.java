import android.app.Notification;
import android.media.AudioAttributes;
import android.net.Uri;

class R {
    static class H {
        static AudioAttributes makeAttrs(int u) {
            return null;
        }
    }

    void ring(Notification.Builder b, Uri u) {
        b.setSound(u);
    }
}
