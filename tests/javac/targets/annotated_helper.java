import android.app.Notification;
import android.media.AudioAttributes;
import android.net.Uri;

class R {
    void ring(Notification.Builder b, Uri u) {
        b.setSound(u);
    }

    @SuppressWarnings("unused")
    static synchronized AudioAttributes makeAttrs(final int usage) {
        return null;
    }
}
